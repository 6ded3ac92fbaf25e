"""The runtime's public surface: every public name has a runtime reader,
and the names retired from it stay retired.

The guard parses src/sensact/ and fails when a name in a module's
__all__, or a public method of a class in that __all__, is referenced
nowhere in src/sensact/ outside its own definition, its __all__ entry and
the package's re-exports in __init__.py; or when a field of a dataclass
in that __all__ is read nowhere in src/sensact/, its own class's methods
included. A reference is a read of the bare name (not for a method or a
field) or of an attribute of that name, such as linalg.sym_part or
report.passes. Names are matched as text, not resolved to objects, so a
method or field counts as read when an attribute of its name is read
anywhere. ALLOWED exempts a name that a roadmap item or a README property
reads, with that item or property as its reason.
"""

import ast

import numpy as np
import pytest

from conftest import REPO_ROOT

from sensact import covariance, linalg, modelio, search, sequence, sim
from sensact.chance import BoxConstraint
from sensact.covariance import ContractionCertificate
from sensact.search import SequenceEvaluator
from sensact.sim import EnsembleStats, empirical_violation, run_ensemble

SRC = REPO_ROOT / "src" / "sensact"

#: name -> the ROADMAP item or README property that reads it
ALLOWED = {
    "contraction_certificate": "ROADMAP item 3: the Stein bound reads gamma and "
                               "monodromy_norm_sq",
    "gamma": "ROADMAP item 3: the Stein bound's noise constant",
    "qtilde_sq": "ROADMAP item 3: the Stein bound's contraction factor",
    "monodromy_norm_sq": "ROADMAP item 3: the Stein bound's one-period norm factor",
    "propagate_error_cov": "ROADMAP item 6: criterion 8 reads the error block of transient",
    "steady_mean_phases": "ROADMAP item 8: the eventual chance certificate's mean phases",
    "uniform_growth_constant": "ROADMAP item 4: the sound dwell verdict",
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


def _is_dataclass(node) -> bool:
    return any(ast.unparse(deco).startswith("dataclass") for deco in node.decorator_list)


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
            for member in definition.body:
                if (isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                        and not _read(member.name, trees, member, bare=False)):
                    unread.append(f"{module}.{name}.{member.name}")
                if (isinstance(member, ast.AnnAssign) and _is_dataclass(definition)
                        and not _read(member.target.id, trees, None, bare=False)):
                    unread.append(f"{module}.{name}.{member.target.id}")
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
        "__all__ = ['orphan', 'Holder', 'Record']\n"
        "def orphan():\n    return orphan()\n"
        "class Holder:\n    def idle(self):\n        return self.idle()\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n    kept: int\n    dropped: int\n"
        "    def _own(self):\n        return self.kept_by_own\n"
        "    kept_by_own: int = 0\n"
        "def _reader():\n    return Holder(), Record(1, 2).kept\n")
    assert unread_names(modules)[-3:] == ["extra.orphan", "extra.Holder.idle",
                                          "extra.Record.dropped"]


# every name, field, parameter and input form retired from the public
# surface, with the error that Python gives for an absent one
#: the fields of a one-run, one-step ensemble record of a 2-state,
#: 1-input plant
_STATS_FIELDS = dict(mean=np.zeros((2, 2)), eta=np.zeros(1, dtype=int), x=np.zeros((1, 2, 2)),
                     xhat=np.zeros((1, 2, 2)), u=np.zeros((1, 1, 1)))


def _stats():
    return EnsembleStats(**_STATS_FIELDS)


def _import_frobenius_norm():
    from sensact import frobenius_norm  # noqa: F401


def _import_mean_propagate():
    from sensact import mean_propagate  # noqa: F401


def _import_search_options():
    from sensact import SearchOptions  # noqa: F401


def _import_periodic_covariance():
    from sensact import PeriodicCovariance  # noqa: F401


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
    # the ensemble is one record of stacked arrays, not a list of runs
    "sim.Trajectory": (AttributeError, lambda: sim.Trajectory),
    "sim.simulate_run": (AttributeError, lambda: sim.simulate_run),
    "run_ensemble(return_trajectories=)": (
        TypeError, lambda: run_ensemble(None, None, "0", None, return_trajectories=True)),
    # Trajectory's retired fields stay off the record that replaced it
    "Trajectory.y": (AttributeError, lambda: _stats().y),
    "Trajectory.error": (AttributeError, lambda: _stats().error),
    "Trajectory(y=)": (TypeError, lambda: EnsembleStats(**_STATS_FIELDS, y=np.zeros((1, 1, 1)))),
    "empirical_violation(list of Trajectory)": (
        AttributeError, lambda: empirical_violation(list(_stats().x), BoxConstraint(1.0))),
    # the Chebyshev exceedance had no command; tests/oracles.py keeps it
    "sim.ellipsoid_exceedance": (AttributeError, lambda: sim.ellipsoid_exceedance),
    "run_ensemble(ellipsoid=)": (
        TypeError, lambda: run_ensemble(None, None, "0", None, ellipsoid=())),
    "EnsembleStats.exceedance": (AttributeError, lambda: _stats().exceedance),
    "EnsembleStats.runs": (AttributeError, lambda: _stats().runs),
    # steady phases are plain (N, n, n) arrays
    "covariance.PeriodicCovariance": (AttributeError, lambda: covariance.PeriodicCovariance),
    "sensact.PeriodicCovariance": (ImportError, _import_periodic_covariance),
    # one PSD check path: the one-matrix kernel; verify_chance takes one
    # eigvalsh of its phase stack
    "check_psd(stacked=)": (TypeError, lambda: linalg.check_psd(np.eye(2), "P", stacked=True)),
    "check_symmetric(stacked=)": (
        TypeError, lambda: linalg.check_symmetric(np.eye(2), "P", stacked=True)),
    # no command read the ensemble's sample covariance or error mean;
    # tests/oracles.py forms them from x and xhat
    "EnsembleStats.cov": (AttributeError, lambda: _stats().cov),
    "EnsembleStats.error_mean": (AttributeError, lambda: _stats().error_mean),
    "EnsembleStats(cov=)": (
        TypeError, lambda: EnsembleStats(**_STATS_FIELDS, cov=np.zeros((2, 2, 2)))),
    # covariance.transient scans one period for the means too; the step
    # loops are test oracles, and the one-period products come from
    # sequence._stacked_products
    "covariance.mean_propagate": (AttributeError, lambda: covariance.mean_propagate),
    "sensact.mean_propagate": (ImportError, _import_mean_propagate),
    "sequence.monodromy": (AttributeError, lambda: sequence.monodromy),
    # nothing read it; the period of a DwellSummary is n0 + n1
    "DwellSummary.period": (AttributeError, lambda: sequence.DwellSummary(1, 1, 2).period),
    # one search driver: table and all_lengths are keyword arguments, and
    # a search_fixed_length call builds its own evaluator
    "search.SearchOptions": (AttributeError, lambda: search.SearchOptions),
    "sensact.SearchOptions": (ImportError, _import_search_options),
    "search_fixed_length(evaluator=)": (TypeError, lambda: search.search_fixed_length(
        1, None, None, None, evaluator=None)),
    # a fifth positional argument, as a SearchOptions was passed, is not
    # taken for table=
    "search_fixed_length(5 positional)": (TypeError, lambda: search.search_fixed_length(
        1, None, None, None, object())),
    # build_from_config checks a config as it builds it
    "modelio.validate_config": (AttributeError, lambda: modelio.validate_config),
}


@pytest.mark.parametrize("form", sorted(RETIRED))
def test_retired_form_is_absent(form):
    error, use = RETIRED[form]
    with pytest.raises(error):
        use()
