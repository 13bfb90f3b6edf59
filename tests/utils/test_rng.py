"""Unit tests for repro.utils.rng — seeded named random streams."""

import ast
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.utils.rng import RandomStreams, derive_seed

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SCHED_SRC = SRC / "sched"
#: Modules outside sched that must also draw only from RandomStreams.
EXTRA_SEEDED_MODULES = (
    SRC / "tune" / "strategy.py",
    SRC / "astro" / "source.py",
    SRC / "scenarios" / "catalog.py",
    SRC / "scenarios" / "truth.py",
    SRC / "scenarios" / "goldens.py",
    SRC / "scenarios" / "regression.py",
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "faults", "crash") == derive_seed(7, "faults", "crash")

    def test_distinct_names_distinct_seeds(self):
        seeds = {
            derive_seed(7),
            derive_seed(7, "a"),
            derive_seed(7, "b"),
            derive_seed(7, "a", "b"),
            derive_seed(8, "a"),
        }
        assert len(seeds) == 5

    def test_name_parts_are_not_concatenated(self):
        # ("ab",) and ("a", "b") are different coordinates.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_range_fits_signed_64_bit(self):
        for i in range(50):
            seed = derive_seed(i, "x")
            assert 0 <= seed < 2 ** 63

    def test_mixed_part_types(self):
        assert derive_seed(3, "shard", 5) == derive_seed(3, "shard", "5")

    def test_negative_root_rejected(self):
        with pytest.raises(ValidationError):
            derive_seed(-1, "x")


class TestRandomStreams:
    def test_numpy_stream_deterministic_across_instances(self):
        a = RandomStreams(11).numpy("noise").normal(size=8)
        b = RandomStreams(11).numpy("noise").normal(size=8)
        assert (a == b).all()

    def test_numpy_streams_cached(self):
        streams = RandomStreams(1)
        assert streams.numpy("x") is streams.numpy("x")

    def test_named_streams_independent(self):
        streams = RandomStreams(2)
        a = streams.numpy("a").uniform(size=4)
        b = streams.numpy("b").uniform(size=4)
        assert (a != b).any()

    def test_python_stream_deterministic(self):
        assert (
            RandomStreams(5).python("p").random()
            == RandomStreams(5).python("p").random()
        )

    def test_spawn_creates_independent_namespace(self):
        parent = RandomStreams(9)
        child = parent.spawn("worker-0")
        assert child.seed != parent.seed
        a = parent.numpy("x").uniform(size=4)
        b = child.numpy("x").uniform(size=4)
        assert (a != b).any()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            RandomStreams(-3)


class TestOrderIndependentDraws:
    def test_uniform_is_pure(self):
        streams = RandomStreams(4)
        first = streams.uniform("transient", "w0", "b0/d0", 1)
        # Interleave unrelated draws; the coordinate's value must not move.
        streams.uniform("other", 1)
        streams.numpy("noise").normal(size=16)
        assert streams.uniform("transient", "w0", "b0/d0", 1) == first

    def test_uniform_in_unit_interval(self):
        streams = RandomStreams(6)
        draws = [streams.uniform("u", i) for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(set(draws)) == len(draws)

    def test_uniform_in_bounds(self):
        streams = RandomStreams(6)
        for i in range(50):
            d = streams.uniform_in(0.1, 0.9, "fp", i)
            assert 0.1 <= d < 0.9

    def test_uniform_in_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            RandomStreams(0).uniform_in(2.0, 1.0, "x")


class TestNoBareRandomInSched:
    """Stochastic modules must draw only from RandomStreams (reproducibility).

    Covers every scheduler source plus the tuning searches and
    heuristics (``tune.strategy``), which once drew from bare
    ``random.Random``.
    """

    def _modules(self):
        files = sorted(SCHED_SRC.glob("*.py"))
        assert files, f"no scheduler sources under {SCHED_SRC}"
        for extra in EXTRA_SEEDED_MODULES:
            assert extra.exists(), f"lint target {extra} is missing"
            files.append(extra)
        return [(path, ast.parse(path.read_text())) for path in files]

    def test_random_module_never_imported(self):
        for path, tree in self._modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                    assert "random" not in names, f"{path} imports random"
                if isinstance(node, ast.ImportFrom):
                    assert node.module != "random", (
                        f"{path} imports from random"
                    )

    def test_no_unseeded_numpy_generator(self):
        for path, tree in self._modules():
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (
                    func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", "")
                )
                if name == "default_rng":
                    assert node.args or node.keywords, (
                        f"{path}: unseeded np.random.default_rng()"
                    )
