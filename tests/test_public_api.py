"""Smoke tests for the top-level public API and the docs that name it."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import repro

REPO = Path(__file__).parents[1]


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_docstring_quick_tour_runs(self):
        """The README/module-docstring quickstart must actually work."""
        from repro import (
            CoVGrouping,
            FederatedDataset,
            GroupFELTrainer,
            SyntheticImage,
            TrainerConfig,
            group_clients_per_edge,
            make_mlp,
            paper_cost_model,
        )

        data = SyntheticImage(seed=0)
        train, test = data.train_test(1500, 200)
        fed = FederatedDataset.from_dataset(
            train, test, num_clients=12, alpha=0.1, size_low=15, size_high=40, rng=0
        )
        groups = group_clients_per_edge(
            CoVGrouping(3, 0.5), fed.L, [np.arange(12)], rng=0
        )
        trainer = GroupFELTrainer(
            lambda: make_mlp(192, 10, hidden=(8,), seed=0),
            fed,
            groups,
            TrainerConfig(group_rounds=1, local_rounds=1, num_sampled=2,
                          max_rounds=2, seed=0),
            paper_cost_model(),
        )
        history = trainer.run()
        assert history.total_cost > 0
        assert 0.0 <= history.final_accuracy <= 1.0


def _resolve(dotted: str):
    """Import ``dotted`` — a module, or attributes under the longest
    importable module prefix; a bare ``Name.attr`` resolves from ``repro``."""
    parts = dotted.split(".")
    if parts[0] != "repro":
        parts = ["repro", *parts]
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _theory_code_refs() -> list[str]:
    """Every backticked reference in the "Code" column of docs/THEORY.md."""
    refs = []
    for line in (REPO / "docs" / "THEORY.md").read_text().splitlines():
        cells = re.split(r"(?<!\\)\|", line)
        if len(cells) != 5 or cells[3].strip() in ("Code", "---"):
            continue
        refs += re.findall(r"`([^`]+)`", cells[3])
    return refs


class TestTheoryMap:
    def test_code_column_names_import(self):
        dotted = [
            ref.split("(")[0]
            for ref in _theory_code_refs()
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", ref.split("(")[0])
        ]
        assert len(dotted) >= 15, dotted
        missing = []
        for name in dotted:
            try:
                _resolve(name)
            except (ImportError, AttributeError):
                missing.append(name)
        assert not missing, f"docs/THEORY.md names code that no longer imports: {missing}"

    def test_code_column_paths_exist(self):
        paths = [ref.split("::")[0] for ref in _theory_code_refs() if "/" in ref]
        assert paths
        assert not [p for p in paths if not (REPO / p).is_file()]
