"""Start-up in proportion to the verb, and the values that replace dataclasses.

A command-line verb runs in a fresh interpreter, so what it imports is part
of its cost: each verb loads only the layers it runs, and no verb loads
``dataclasses``, ``fractions`` or ``decimal``, nor, on a canonical line,
``argparse`` and the ``argparser`` module built on it.  The package
resolves its public names on first use, and ``points`` the names of the
point sets that moved to ``pointsets``.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qtree
from conftest import P
from test_cli import HELP
from qtree import (
    ROOT,
    BasePointSet,
    CofiniteFan,
    CompleteIdeal,
    IntersectionDescriptor,
    MonomialIdeal,
    MonomialValuation,
    NonsingularModel,
    OrderValuation,
    SymbolicPointSet,
    TruncatedTree,
    classify,
    minimal_incomparable_set,
    valuation_for_point,
)

SRC = str(Path(qtree.__file__).resolve().parents[1])
LAYERS = {
    "argparser",
    "baseindex",
    "baseunion",
    "ideals",
    "intersections",
    "models",
    "monomial",
    "pointsets",
    "render",
    "truncation",
}

Y_FACTOR = '{"factors":[{"point":{"path":["Y"]},"mult":1}]}'
ROOT_MODEL = '{"base":[{"path":[]}]}'
X_POINTS = '{"points":[{"path":["X"]}]}'
MODEL_PAIR = json.dumps({"models": [{"base": [{"path": []}]}, {"base": [{"path": []}]}]})
DESCRIPTOR = json.dumps(
    {"model": {"base": [{"path": []}]}, "subset": {"singles": [{"path": ["X"]}]}}
)


def python(code: str, *argv: str, **env: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


# ``python -m qtree ARGV`` through runpy, as ``-m`` runs it, with the names
# of the loaded modules printed last on stderr when the interpreter exits
RUN_VERB = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(' '.join(sys.modules), file=sys.stderr))\n"
    "runpy.run_module('qtree', run_name='__main__', alter_sys=True)\n"
)


# (verb and flags, then the layers it must load and no others)
VERBS = [
    (("saturate", Y_FACTOR), {"ideals"}),
    (("base-points", Y_FACTOR), {"ideals"}),
    (("rees", Y_FACTOR), {"ideals"}),
    (("saturate", Y_FACTOR, "--generators"), {"ideals", "monomial"}),
    (("generators", Y_FACTOR), {"ideals", "monomial"}),
    (("closure", "x^3, y^2"), {"monomial"}),
    (("transform", "x^2, xy, y^2", "--dir", "X"), {"monomial"}),
    (("point-of-valuation", '{"p": 2, "q": 3}'), {"monomial"}),
    (("factorize", "x^2, xy, y^2"), {"ideals", "monomial"}),
    # a model read from input is a set of given points, indexed by
    # ``baseindex``; an ideal's base set and a minimal model are closures
    (("closed-points", ROOT_MODEL), {"baseindex", "ideals", "models", "pointsets"}),
    (
        ("closed-points", ROOT_MODEL, "--truncate", "2"),
        {"baseindex", "ideals", "models", "pointsets", "truncation"},
    ),
    (("min-incomparable", X_POINTS), {"ideals", "models", "pointsets"}),
    (
        ("min-incomparable", X_POINTS, "--truncate", "2"),
        {"ideals", "models", "pointsets", "truncation"},
    ),
    (("minimal-model", X_POINTS), {"ideals", "models"}),
    (("desingularize", Y_FACTOR), {"ideals", "models"}),
    (("desingularize", Y_FACTOR, "--dot"), {"ideals", "models", "pointsets", "render"}),
    # only a union of two base sets loads ``baseunion``
    (("join", MODEL_PAIR), {"baseindex", "baseunion", "ideals", "models"}),
    (("emit-dot", ROOT_MODEL), {"baseindex", "ideals", "models", "pointsets", "render"}),
    (
        ("classify", DESCRIPTOR),
        {"baseindex", "ideals", "intersections", "models", "pointsets"},
    ),
]


@pytest.mark.parametrize(
    "argv, layers",
    VERBS,
    # the verb and its flags, without the input
    ids=[" ".join(a for a in argv if a[0] not in "{x") for argv, _ in VERBS],
)
def test_a_verb_loads_only_its_layers(argv, layers):
    proc = python(RUN_VERB, *argv)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.splitlines()[-1].split())
    # a canonical line is parsed without argparse and the gettext and locale
    # it loads (``argparser``, the module built on it, is in LAYERS)
    assert not {"dataclasses", "fractions", "decimal", "argparse", "gettext", "locale"} & modules
    assert {m.partition(".")[2] for m in modules if m.startswith("qtree.")} & LAYERS == layers


def test_help_still_comes_from_argparse():
    proc = python(RUN_VERB, "closed-points", "-h", COLUMNS="80")
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.splitlines()[-1].split())
    assert {"argparse", "qtree.argparser"} <= modules
    # help reads no input, so it loads no layer of the calculus
    assert {m.partition(".")[2] for m in modules if m.startswith("qtree.")} & LAYERS == {
        "argparser"
    }
    assert proc.stdout == HELP["closed-points"]


@pytest.mark.parametrize("argv", [("closure", "-h"), ("closure",), ("nope", "x")])
def test_the_cli_run_as_main_is_one_module(argv):
    # ``python -m qtree.cli`` runs ``cli`` as ``__main__``; a line that
    # ``argparser`` parses imports the verb table from ``qtree.cli``, which
    # must find that module rather than load and compile a second one
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-X", "importtime", *args, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    proc, documented = run("-m", "qtree.cli"), run("-m", "qtree")
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()]
    assert "qtree.argparser" in imported and "qtree.cli" not in imported
    # the output and the exit code of ``python -m qtree``, the documented entry
    assert proc.returncode == documented.returncode
    assert proc.stdout == documented.stdout
    errors = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")]
    assert errors == [
        line for line in documented.stderr.splitlines() if not line.startswith("import time:")
    ]


def test_import_qtree_loads_no_submodule_until_a_name_is_used():
    proc = python(
        "import sys, qtree\n"
        "print(sorted(m for m in sys.modules if m.startswith('qtree')))\n"
        "qtree.MonomialIdeal\n"
        "print(sorted(m for m in sys.modules if m.startswith('qtree')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert before == "['qtree']"
    assert "'qtree.monomial'" in after and "'qtree.models'" not in after


def test_dir_lists_every_name_and_loads_no_submodule():
    proc = python(
        "import sys, qtree\n"
        "print(' '.join(dir(qtree)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('qtree')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    names, modules = proc.stdout.splitlines()
    assert set(qtree.__all__) | {"cli", "render", "serialize"} <= set(names.split())
    assert modules == "['qtree']"
    # and in this process, where line coverage sees ``__dir__`` run
    assert set(qtree.__all__) | {"cli", "render", "serialize"} <= set(dir(qtree))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qtree import *", namespace)
    assert set(qtree.__all__) <= namespace.keys()
    assert namespace["MonomialIdeal"] is MonomialIdeal
    assert qtree.__all__ == sorted(qtree.__all__)


@pytest.mark.parametrize(
    "name",
    ["cli", "errors", "ideals", "intersections", "models", "monomial", "points",
     "pointsets", "render", "serialize", "truncation"],
)
def test_submodules_are_attributes(name):
    assert getattr(qtree, name) is sys.modules[f"qtree.{name}"]


def test_points_forwards_the_moved_point_set_names_and_keeps_them():
    # a fresh interpreter, so that nothing has read the names yet
    proc = python(
        "import sys, qtree.points as points\n"
        "names = ('CofiniteFan', 'SymbolicPointSet')\n"
        "print('qtree.pointsets' in sys.modules, *(n in vars(points) for n in names))\n"
        "import qtree.pointsets as pointsets\n"
        "print(*(getattr(points, n) is getattr(pointsets, n) for n in names))\n"
        "print(*(vars(points)[n] is getattr(pointsets, n) for n in names))\n"
        "print(hasattr(points, 'no_such_name'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False False False",
        "True True",
        "True True",
        "False",
    ]
    assert qtree.points.SymbolicPointSet is qtree.pointsets.SymbolicPointSet
    assert "SymbolicPointSet" in vars(qtree.points)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        qtree.no_such_name
    assert not hasattr(qtree, "seeded_rng")
    assert "seeded_rng" not in qtree.__all__


def _descriptor():
    return IntersectionDescriptor(
        NonsingularModel(BasePointSet.of([ROOT])), SymbolicPointSet.fan(ROOT, ("Y",)), True
    )


# (make a value, make an unequal value of the same class, a field, its repr);
# the reprs are the ones the former dataclasses printed
VALUES = [
    (lambda: P("X", "Y"), lambda: P("X"), "path", "Point(path=('X', 'Y'))"),
    (
        lambda: OrderValuation(P("X")),
        lambda: OrderValuation(P("Y")),
        "center",
        "OrderValuation(center=Point(path=('X',)))",
    ),
    (
        lambda: CofiniteFan(ROOT, ("Y", "X")),
        lambda: CofiniteFan(ROOT, ("X",)),
        "excluded",
        "CofiniteFan(base=Point(path=()), excluded=('X', 'Y'))",
    ),
    (
        lambda: SymbolicPointSet((P("X", "Y"),), (CofiniteFan(P("Y")),)),
        lambda: SymbolicPointSet((P("X", "Y"),)),
        "fans",
        "SymbolicPointSet(singles=(Point(path=('X', 'Y')),), "
        "fans=(CofiniteFan(base=Point(path=('Y',)), excluded=()),))",
    ),
    (
        lambda: BasePointSet.of([ROOT]),
        lambda: BasePointSet.of([ROOT, P("X")]),
        "_labels",
        "BasePointSet(_labels=(None,), _counts=(0,))",
    ),
    (
        lambda: CompleteIdeal.of({P("X"): 2}),
        lambda: CompleteIdeal.of({P("X"): 1}),
        "factors",
        "CompleteIdeal(factors=((Point(path=('X',)), 2),))",
    ),
    (
        lambda: NonsingularModel(BasePointSet.of([ROOT])),
        lambda: NonsingularModel(BasePointSet.of([ROOT, P("Y")])),
        "base",
        "NonsingularModel(base=BasePointSet(_labels=(None,), _counts=(0,)))",
    ),
    (
        _descriptor,
        lambda: IntersectionDescriptor(
            NonsingularModel(BasePointSet.of([ROOT])), SymbolicPointSet.fan(ROOT, ("Y",))
        ),
        "henselian",
        "IntersectionDescriptor(model=NonsingularModel(base=BasePointSet("
        "_labels=(None,), _counts=(0,))), subset=SymbolicPointSet(singles=(), "
        "fans=(CofiniteFan(base=Point(path=()), excluded=('Y',)),)), henselian=True)",
    ),
    (
        lambda: classify(_descriptor()),
        lambda: classify(
            IntersectionDescriptor(
                NonsingularModel(BasePointSet.of([ROOT])),
                SymbolicPointSet.of_points([P("X")]),
            )
        ),
        "irredundant",
        "Classification(maximal_ideal_count='INFINITE', count_basis='a cofinite "
        "first-neighborhood fan contributes one maximal ideal per member, and first "
        "neighborhoods are infinite', irredundant=<Verdict.YES: 'YES'>, "
        "irredundant_basis='a subset of a single first neighborhood is an irredundant "
        "representation of its intersection', essential=<Verdict.YES: 'YES'>, "
        "essential_basis='a proper cofinite subset of a first neighborhood is an "
        "essential representation of its intersection', noetherian=True, "
        "noetherian_basis='an intersection of closed points of a nonsingular projective "
        "model is a normal Noetherian domain with all maximal ideals of height 2', "
        "ring_point=None, singularity=None)",
    ),
    (
        lambda: MonomialIdeal.of((0, 2), (1, 0)),
        lambda: MonomialIdeal.of((0, 1), (1, 0)),
        "gens",
        "MonomialIdeal(gens=((0, 2), (1, 0)))",
    ),
    (
        lambda: MonomialValuation(2, 3),
        lambda: MonomialValuation(3, 2),
        "p",
        "MonomialValuation(p=2, q=3)",
    ),
    (
        lambda: TruncatedTree(max_level=2),
        lambda: TruncatedTree(max_level=3),
        "max_level",
        "TruncatedTree(alphabet=('X', 'Y', 't1', 't2'), max_level=2)",
    ),
]


@pytest.mark.parametrize(
    "make, make_other, field, text", VALUES, ids=[v[3].partition("(")[0] for v in VALUES]
)
def test_former_dataclasses_are_frozen_values(make, make_other, field, text):
    value, same, other = make(), make(), make_other()
    assert value == same and hash(value) == hash(same)
    assert value != other and not (value == other)
    assert value != text and value.__eq__(text) is NotImplemented
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == getattr(same, field)
    for copied in pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value):
        assert copied == value and hash(copied) == hash(value) and repr(copied) == text


def test_fans_and_monomial_valuations_keep_their_fields_in_slots():
    # every builder: the constructor, closed points and the incomparable set
    # (``_trusted_fan``), ``minus`` and the constructor's merge of two fans
    # over one base
    fans = [
        CofiniteFan(ROOT, ("Y", "X")),
        *NonsingularModel(BasePointSet.of([ROOT, P("X")])).closed_points().fans,
        *minimal_incomparable_set([P("X", "Y")]).fans,
        *SymbolicPointSet.fan(ROOT).minus([P("X")]).fans,
        *SymbolicPointSet((), (CofiniteFan(ROOT, ("X", "Y")), CofiniteFan(ROOT, ("X",)))).fans,
    ]
    assert len(fans) == 7
    valuations = [MonomialValuation(2, 3), valuation_for_point(P("X", "Y"))]
    for value in fans + valuations:
        assert not hasattr(value, "__dict__"), value
def test_cached_properties_stay_outside_the_value():
    s = SymbolicPointSet((P("X", "Y"),), (CofiniteFan(P("Y")),))
    assert P("Y", "t1") in s and P("X", "Y") in s  # fills both caches
    fresh = SymbolicPointSet((P("X", "Y"),), (CofiniteFan(P("Y")),))
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    copy = pickle.loads(pickle.dumps(s))
    assert copy == fresh and P("Y", "t1") in copy and P("Y") not in copy
    ideal = CompleteIdeal.of([P("X"), P("Y")])
    assert ideal.support == (P("X"), P("Y"))
    assert ideal == CompleteIdeal.of([P("Y"), P("X")])
    # the base set is cached beside the factors, and a saturated value
    # arrives with it
    base = BasePointSet.of([ROOT, P("X"), P("Y")])
    for value, fresh, text in [
        (
            ideal,
            CompleteIdeal.of([P("Y"), P("X")]),
            "CompleteIdeal(factors=((Point(path=('X',)), 1), (Point(path=('Y',)), 1)))",
        ),
        (
            CompleteIdeal.saturated(base),
            CompleteIdeal.of([ROOT, P("X"), P("Y")]),
            "CompleteIdeal(factors=((Point(path=()), 1), (Point(path=('X',)), 1), "
            "(Point(path=('Y',)), 1)))",
        ),
    ]:
        assert value.base_points() is value.base_points()
        assert value == fresh and hash(value) == hash(fresh)
        assert repr(value) == repr(fresh) == text
        copy = pickle.loads(pickle.dumps(value))
        assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == text
        assert copy.base_points() == value.base_points()
        assert copy.base_points().sorted() == value.base_points().sorted()


def test_a_pickled_base_set_carries_no_index():
    # only the points are pickled: the index, whose labels and counts are
    # the value, is rebuilt from them
    chain = CompleteIdeal.simple(P(*"X" * 3000)).base_points()
    copy = pickle.loads(pickle.dumps(chain))
    assert copy == chain and copy.terminals() == chain.terminals()
