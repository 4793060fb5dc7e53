"""A family carries its weight: no public function of ``hardybeta`` asks
for a weight next to a colligation or characteristic family, where the two
could disagree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hardybeta"
FAMILIES = {"ColligationFamily", "CharFamily"}


def public_defs():
    """``(module.name, [names in each parameter's annotation])`` of every
    def whose name does not start with ``_``, methods included."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                yield f"{path.stem}.{node.name}", [
                    {n.id for n in ast.walk(p.annotation)
                     if isinstance(n, ast.Name)} if p.annotation else set()
                    for p in params]


def test_no_weight_next_to_a_family():
    defs = dict(public_defs())
    takes_family = {name for name, anns in defs.items()
                    if any(a & FAMILIES for a in anns)}
    # the walk sees the functions that read the family's weight
    assert {"syssim.simulate", "kernels.check_inner_family",
            "model.model_roundtrip_residual"} <= takes_family
    both = sorted(name for name in takes_family
                  if any("WeightSequence" in a for a in defs[name]))
    assert both == []
