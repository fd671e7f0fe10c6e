import os
from unittest import mock

import pytest


@pytest.fixture(autouse=True)
def _own_environ():
    # cli.run sets OPENBLAS_NUM_THREADS for the rest of its process; each
    # test, and each interpreter a test starts, sees the environment as it was
    with mock.patch.dict(os.environ):
        yield
