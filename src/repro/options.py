"""One typed error for a bad option value.

The options dataclasses (:class:`~repro.load.StormOptions`,
:class:`~repro.exec.ExecOptions`, :class:`~repro.exec.LabOptions`,
:class:`~repro.monitoring.MonitoringOptions`) check their own fields,
and the scenario registry checks ``nodes`` and which options a scenario
takes.  Each raises :class:`OptionError` naming the field.  Every CLI
flag that sets a field has ``dest=<field name>``, so the CLI reports the
error against the flag the user typed and exits 2.
"""

from __future__ import annotations

__all__ = ["OptionError", "require"]


class OptionError(ValueError):
    """Option ``field`` has a bad value.  ``message`` says why, with
    ``{}`` where the option's name goes: the field name in ``str()``,
    the flag in the CLI's usage error."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(self.naming(field))

    def naming(self, name: str) -> str:
        """The message with ``name`` in the option's place."""
        return self.message.replace("{}", name, 1)


def require(ok: bool, field: str, value, rule: str) -> None:
    """Raise :class:`OptionError` unless ``ok``.  Write ``ok`` as the
    condition that holds (``0 < x < inf``), so that NaN fails it."""
    if not ok:
        raise OptionError(field, f"{{}}: must be {rule}, got {value!r}")
