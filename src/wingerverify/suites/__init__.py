"""The claim suites of the CLI, one module per layer that they read.

A suite `check_<name>(report, args, corruption)` lives in the module named
by `cli.SUITE_MODULES`; `cli.SUITES` imports that module on the suite's
first call, so a subcommand compiles only its own suites.  Each suite
imports the layers it runs inside its body, so a test or tracer patches a
name in the layer that defines it.
"""
