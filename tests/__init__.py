"""twinsync's tests: a package, so that its helpers import as `tests.conftest`
and never shadow the `conftest` of bench/tests in one pytest run."""
