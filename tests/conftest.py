import pytest

import sunadalab as sl
from sunadalab.permgrp import bundled_group_path

BUNDLED = ["s3", "s4", "z4", "z6", "z8", "d4", "q8", "aff8"]


@pytest.fixture(scope="session")
def groups():
    return {name: sl.load_bundled_group(name) for name in BUNDLED}


@pytest.fixture(scope="session")
def s3(groups):
    return groups["s3"]


@pytest.fixture(scope="session")
def s4(groups):
    return groups["s4"]


@pytest.fixture(scope="session")
def d4(groups):
    return groups["d4"]


@pytest.fixture(scope="session")
def q8(groups):
    return groups["q8"]


@pytest.fixture(scope="session")
def z4(groups):
    return groups["z4"]


@pytest.fixture(scope="session")
def z6(groups):
    return groups["z6"]


@pytest.fixture(scope="session")
def aff8(groups):
    return groups["aff8"]


@pytest.fixture(scope="session")
def aff8_triple(aff8):
    h1 = sl.load_subgroup_file(bundled_group_path("aff8_h1.subgroup"), aff8)
    h2 = sl.load_subgroup_file(bundled_group_path("aff8_h2.subgroup"), aff8)
    return aff8, h1, h2


@pytest.fixture
def announce(capsys):
    """Print a pass/fail line straight to the terminal, then assert."""

    def _announce(num, ok, detail=""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"[acceptance] criterion {num}: {status}{suffix}", flush=True)
        assert ok, f"criterion {num} failed {suffix}"

    return _announce
