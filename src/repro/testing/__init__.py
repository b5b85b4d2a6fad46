"""Test-only support code: bitwise reference oracles (:mod:`.oracles`)
and the executor-rung switch (:mod:`.rungs`).

Nothing under :mod:`repro.testing` is imported by the library's
production paths; tests and benchmarks use it to pin the production
structures bit for bit.
"""
