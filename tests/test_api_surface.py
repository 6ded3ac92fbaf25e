"""The runtime's public surface: every public name has a runtime reader,
and the names retired from it stay retired.

The guard parses src/sensact/ and fails when a name in a module's
__all__, or a public method of a class in that __all__, is referenced
nowhere in src/sensact/ outside its own definition, its __all__ entry and
the package's re-exports in __init__.py. A reference is a read of the
bare name (not for a method) or of an attribute of that name, such as
linalg.sym_part or report.passes. Names are matched as text, not
resolved to objects, so a method counts as read when an attribute of its
name is read anywhere. ALLOWED exempts a name that a
roadmap item or a README property reads, with that item or property as
its reason.
"""

import ast

import numpy as np
import pytest

from conftest import REPO_ROOT

from sensact import linalg
from sensact.chance import BoxConstraint
from sensact.covariance import ContractionCertificate, PeriodicCovariance
from sensact.search import SequenceEvaluator
from sensact.sim import Trajectory, ellipsoid_exceedance, empirical_violation

SRC = REPO_ROOT / "src" / "sensact"

#: name -> the ROADMAP item or README property that reads it
ALLOWED = {
    "contraction_certificate": "ROADMAP item 3: the Stein bound reads gamma and "
                               "monodromy_norm_sq",
    "propagate_error_cov": "ROADMAP item 6: the exact transient replaces its loop",
    "steady_mean_phases": "ROADMAP item 8: the eventual chance certificate's mean phases",
    "uniform_growth_constant": "ROADMAP item 4: the sound dwell verdict",
    "simulate_run": "README: every run is reproducible on its own, as the batch of one",
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _definitions(tree) -> dict:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _read(name, trees, skip, bare) -> bool:
    """Whether some tree, outside the subtree skip, reads an attribute
    name, or the bare name when bare is set."""
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if bare and isinstance(node, ast.Name) and node.id == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def unread_names(modules) -> list:
    """The qualified public names of the modules that nothing reads."""
    trees = list(modules.values())
    unread = []
    for module, tree in modules.items():
        definitions = _definitions(tree)
        for name in _exports(tree):
            definition = definitions.get(name)
            if not _read(name, trees, definition, bare=True):
                unread.append(f"{module}.{name}")
            if not isinstance(definition, ast.ClassDef):
                continue
            for method in definition.body:
                if (isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                        and not _read(method.name, trees, method, bare=False)):
                    unread.append(f"{module}.{name}.{method.name}")
    return unread


def test_every_public_name_has_a_runtime_reader():
    unread = [name for name in unread_names(_modules())
              if name.rsplit(".", 1)[-1] not in ALLOWED]
    assert unread == [], f"public names that nothing in src/sensact reads: {unread}"


def test_allowed_names_are_still_unread():
    # an exemption whose name gained a reader, or left the code, is stale
    unread = {name.rsplit(".", 1)[-1] for name in unread_names(_modules())}
    assert sorted(set(ALLOWED) - unread) == []


def test_guard_sees_an_unread_function_and_method():
    modules = _modules()
    modules["extra"] = ast.parse(
        "__all__ = ['orphan', 'Holder']\n"
        "def orphan():\n    return orphan()\n"
        "class Holder:\n    def idle(self):\n        return self.idle()\n"
        "def _reader():\n    return Holder()\n")
    assert unread_names(modules)[-2:] == ["extra.orphan", "extra.Holder.idle"]


# every name, field, parameter and input form retired from the public
# surface, with the error that Python gives for an absent one
def _trajectory():
    from sensact.sim import Trajectory

    return Trajectory(eta=np.zeros(1), x=np.zeros((2, 2)), xhat=np.zeros((2, 2)),
                      u=np.zeros((1, 1)))


def _import_frobenius_norm():
    from sensact import frobenius_norm  # noqa: F401


RETIRED = {
    "ContractionCertificate.limsup_bound": (AttributeError, lambda: ContractionCertificate(
        gamma=1.0, qtilde_sq=0.25, monodromy_norm_sq=1.0).limsup_bound),
    "ContractionCertificate(limsup_bound=)": (TypeError, lambda: ContractionCertificate(
        gamma=1.0, qtilde_sq=0.25, limsup_bound=1.0, monodromy_norm_sq=1.0)),
    "linalg.spectral_norm": (AttributeError, lambda: linalg.spectral_norm),
    "linalg.frobenius_norm": (AttributeError, lambda: linalg.frobenius_norm),
    "sensact.frobenius_norm": (ImportError, _import_frobenius_norm),
    "SequenceEvaluator.evaluate": (AttributeError, lambda: SequenceEvaluator.evaluate),
    "BoxConstraint(per_component=)": (
        TypeError, lambda: BoxConstraint(1.0, per_component=(1.0, 2.0))),
    "Trajectory.y": (AttributeError, lambda: _trajectory().y),
    "Trajectory.error": (AttributeError, lambda: _trajectory().error),
    "Trajectory(y=)": (TypeError, lambda: Trajectory(
        eta=np.zeros(1), x=np.zeros((2, 2)), xhat=np.zeros((2, 2)), u=np.zeros((1, 1)),
        y=np.zeros((1, 1)))),
    "empirical_violation(list of Trajectory)": (
        AttributeError, lambda: empirical_violation([_trajectory()], BoxConstraint(1.0))),
    "ellipsoid_exceedance(list of Trajectory)": (
        AttributeError, lambda: ellipsoid_exceedance(
            [_trajectory()], PeriodicCovariance(phases=(np.eye(2),)), np.zeros((1, 2)), 1.0)),
    "PeriodicCovariance(period=)": (
        TypeError, lambda: PeriodicCovariance(phases=(np.eye(2),), period=1)),
}


@pytest.mark.parametrize("form", sorted(RETIRED))
def test_retired_form_is_absent(form):
    error, use = RETIRED[form]
    with pytest.raises(error):
        use()
