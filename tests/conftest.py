import gc

import pytest


@pytest.fixture
def refcount_only():
    """The cyclic garbage collector is off while the test runs, so whatever
    a test sees freed was freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
