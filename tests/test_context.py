"""The run context: one slot for every run-wide setting, read once per
trainer."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.context import RunContext, activated, current

SRC = Path(repro.__file__).parent

#: the only modules allowed a ``global`` statement: the context slot, and the
#: pool initializer's per-process counter
GLOBAL_ALLOWED = {"context.py": {"_current"}, "parallel.py": {"_WORKER_INIT_COUNT"}}


class TestRunContext:
    def test_holds_exactly_the_run_wide_settings(self):
        assert [f.name for f in dataclasses.fields(RunContext)] == [
            "telemetry", "parallel", "faults", "population", "checkpoint",
            "engine", "pipeline_rounds", "sampling_scheme",
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunContext().engine = "batched"

    def test_default_is_empty_and_activation_restores(self):
        assert current() == RunContext()
        ctx = RunContext(engine="reference")
        with pytest.raises(RuntimeError):
            with activated(ctx) as inside:
                assert inside is ctx and current() is ctx
                raise RuntimeError("x")
        assert current() == RunContext()

    def test_inner_context_replaces_outer(self):
        with activated(RunContext(engine="reference", sampling_scheme="stratified")):
            with activated(RunContext(engine="batched")):
                assert current() == RunContext(engine="batched")

    def test_activated_rejects_anything_else(self):
        with pytest.raises(TypeError, match="takes a RunContext, got dict"):
            with activated({"engine": "batched"}):
                pass
        assert current() == RunContext()


def test_no_other_module_keeps_ambient_globals():
    """Run-wide state lives in one slot: a ``global`` statement anywhere
    else in the package is a second ambient slot."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Global):
                found.setdefault(str(path.relative_to(SRC)), set()).update(node.names)
    assert found == GLOBAL_ALLOWED


#: a trainer's round loop and what drives it: subclasses substitute its
#: stages (select, route, models, regroup), never the loop itself
ROUND_LOOP = {"train_round", "_train_selected", "evaluate", "run"}


def test_one_round_loop_for_every_trainer():
    """Only ``GroupFELTrainer`` defines the round loop, and no trainer
    subclass reads or overrides ``pipeline_rounds``: clustered trainers
    pipeline like the base one."""
    loops, pipeline_reads = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(cls, ast.ClassDef) and cls.name.endswith("Trainer")):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name in ROUND_LOOP:
                    loops.add((module, cls.name, node.name))
            if cls.name == "GroupFELTrainer":
                continue
            for node in ast.walk(cls):
                if "pipeline_rounds" in (
                    getattr(node, "attr", None), getattr(node, "arg", None)
                ):
                    pipeline_reads.add((module, cls.name))
    assert loops == {
        ("core/trainer.py", "GroupFELTrainer", name)
        for name in ROUND_LOOP - {"_train_selected"}
    }
    assert not pipeline_reads
