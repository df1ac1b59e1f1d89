"""Workbench: the demo's Configuration → Description → Result workflow.

:class:`~repro.api.PrismSession` is imported from :mod:`repro.api` (or
the top-level :mod:`repro` package); this package itself exports
nothing.  ``repro.workbench.session`` and
``repro.workbench.cli`` stay importable.
"""
