"""The pure-Python generator draws numpy's bits, and numpy stays a test-only
oracle: nothing under src/fairpool or scripts/ imports it. Substream seeds
are BLAKE2b digests, and the package imports neither hashlib nor
dataclasses, whose loading would slow every command's start."""

import ast
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpool.seeds import Generator, subseed, substream

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# Rates on both sides of numpy's switch from multiplication to PTRS at 10,
# including the workloads' 5, 10 and 12.
POISSON_RATES = [0.0, 0.5, 5.0, 9.99, 10.0, 12.0, 37.5, 1000.0]
INTEGER_HIGHS = [1, 2, 3, 7, 100, 2**31 + 1, 2**32 - 1, 2**32]

call = st.one_of(
    st.tuples(st.just("integers"), st.sampled_from(INTEGER_HIGHS)),
    st.tuples(st.just("integers_between"), st.integers(0, 50), st.integers(1, 60)),
    st.tuples(st.just("integers_size"), st.integers(1, 100), st.integers(0, 9)),
    st.tuples(st.just("uniform")),
    st.tuples(st.just("uniform_size"), st.floats(-5.0, 5.0), st.floats(0.5, 90.0), st.integers(0, 12)),
    st.tuples(st.just("poisson"), st.sampled_from(POISSON_RATES)),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
)


def draw(rng, op):
    """One call on either generator, as plain Python values."""
    kind, *args = op
    if kind == "integers":
        out = rng.integers(args[0])
    elif kind == "integers_between":
        out = rng.integers(args[0], args[0] + args[1])
    elif kind == "integers_size":
        out = rng.integers(args[0], size=args[1])
    elif kind == "uniform":
        out = rng.uniform()
    elif kind == "uniform_size":
        low, width, size = args
        out = rng.uniform(low, low + width, size=size)
    elif kind == "poisson":
        out = rng.poisson(args[0])
    else:
        out = rng.permutation(args[0])
    return out.tolist() if isinstance(out, (np.ndarray, np.generic)) else out


def bits(value):
    """Floats by their bit pattern, so -0.0 and 0.0 differ."""
    if isinstance(value, list):
        return [bits(x) for x in value]
    return value.hex() if isinstance(value, float) else value


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**64 - 1), st.integers(0, 2**160)),
    ops=st.lists(call, max_size=60),
)
def test_generator_matches_numpy_bit_for_bit(seed, ops):
    """Any interleaving of fairpool's calls returns numpy's values and types,
    so the half-word a 32-bit draw keeps carries across other draws."""
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for op in ops:
        got, want = draw(ours, op), draw(theirs, op)
        assert bits(got) == bits(want), op
        assert type(got) is type(want), op


def test_poisson_matches_numpy_on_long_runs():
    """Thousands of draws per rate reach PTRS's rarely taken rejection
    branches; uniforms in between shift the stream."""
    for rate in POISSON_RATES:
        ours, theirs = substream(3, f"poisson-{rate}"), np.random.default_rng(subseed(3, f"poisson-{rate}"))
        for i in range(4000):
            assert ours.poisson(rate) == int(theirs.poisson(rate)), (rate, i)
            if i % 7 == 0:
                assert ours.uniform() == float(theirs.uniform())


@pytest.mark.parametrize("args", [(0,), (5, 5), (5, 2)])
def test_integers_rejects_an_empty_range(args):
    with pytest.raises(ValueError, match="empty range"):
        Generator(0).integers(*args)


def test_negative_seed_and_rate_are_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        Generator(-1)
    with pytest.raises(ValueError, match="non-negative"):
        Generator(0).poisson(-1.0)


def imported_modules(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_runtime_file_imports_numpy():
    paths = []
    for folder in ("src/fairpool", "scripts"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, folder)):
            paths += [os.path.join(dirpath, n) for n in names if n.endswith(".py")]
    assert len(paths) > 10
    offenders = [
        (os.path.relpath(path, ROOT), module)
        for path in paths
        for module in imported_modules(path)
        if module.split(".")[0] == "numpy"
    ]
    assert offenders == []


def test_no_package_file_imports_dataclasses_or_hashlib():
    package = os.path.join(ROOT, "src", "fairpool")
    paths = [os.path.join(package, n) for n in os.listdir(package) if n.endswith(".py")]
    assert len(paths) > 10
    offenders = [
        (os.path.relpath(path, ROOT), module)
        for path in paths
        for module in imported_modules(path)
        if module.split(".")[0] in ("dataclasses", "hashlib")
    ]
    assert offenders == []


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    """In a fresh interpreter without `site`, so only the package's own
    imports count."""
    src = os.path.join(ROOT, "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import fairpool.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'hashlib', '_hashlib') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "root, name",
    [(0, "fleet"), (7, "demand"), (11, "train-ep0"), (3, "train-ep12"), (2**63, "mc-shapley"),
     (2**63, "fleet"), (2**64 - 1, "train-ep0")],
)
def test_subseed_is_the_blake2b_digest_of_root_and_name(root, name):
    digest = hashlib.blake2b(f"{root}:{name}".encode(), digest_size=8).digest()
    assert subseed(root, name) == int.from_bytes(digest, "big")
