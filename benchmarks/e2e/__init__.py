"""End-to-end benchmark of the NUMFabric reproduction (see README.md here).

A package only so that its modules can import each other as ``e2e.<name>``
without shadowing the standard library (``trace``) or ``repro.workloads``.
"""
