import pytest

from cfsmkit import (
    GtirError,
    IncompatibleInterfaces,
    InterfaceCommunication,
    LanguageMismatch,
    ParseError,
    Role,
    base,
    connect,
    explore,
    initial_configuration,
    interaction,
    is_isomorphic,
    gateway,
    load_global_types,
    parse_global_type,
    parse_gtir,
    project,
    project_gtir,
    render_gtir,
    semantics,
    validate_gtir,
)
from cfsmkit.globaltype import End, UnknownRoleError
from conftest import submitter_machine


# -- construction invariants --------------------------------------------------

def test_base_interfaces_must_occur_in_the_type(relay_type):
    with pytest.raises(GtirError):
        base(relay_type, ["I", "NOPE"])


def test_connect_requires_open_interfaces(relay_type, alternator_type):
    with pytest.raises(GtirError):
        connect(base(relay_type, ["I", "H"]), "J", base(alternator_type, ["K"]), "K")
    with pytest.raises(GtirError):
        connect(base(relay_type, ["I", "J", "H"]), "J", base(alternator_type, []), "K")


def test_connect_requires_disjoint_roles(relay_type):
    with pytest.raises(GtirError):
        connect(base(relay_type, ["J"]), "J", base(relay_type, ["H"]), "H")


def test_interface_sets_follow_the_formula(relay_expr):
    assert relay_expr.interfaces() == {Role("I"), Role("H")}
    assert relay_expr.roles() == frozenset(Role(r) for r in "MTCIJHABK")


def test_components(relay_expr, relay_type, alternator_type):
    assert relay_expr.components() == {relay_type, alternator_type}


# -- projection through expressions -------------------------------------------

def test_project_gtir_base_delegates(relay_type):
    expr = base(relay_type, ["I", "J", "H"])
    assert project_gtir(expr, "J") == project(relay_type, "J")


def test_project_gtir_finds_the_component(relay_expr, relay_type, alternator_type):
    assert project_gtir(relay_expr, "M") == project(relay_type, "M")
    assert project_gtir(relay_expr, "A") == project(alternator_type, "A")


def test_project_gtir_unknown_role(relay_expr):
    with pytest.raises(UnknownRoleError):
        project_gtir(relay_expr, "ZZ")


# -- validation ---------------------------------------------------------------

def test_relay_base_is_valid(relay_type):
    assert validate_gtir(base(relay_type, ["I", "J", "H"])) == []


def test_interface_communication_is_a_violation():
    expr = base(interaction("I", "J", "a"), ["I", "J"])
    violations = validate_gtir(expr)
    assert len(violations) == 1
    assert isinstance(violations[0], InterfaceCommunication)


def test_incompatible_connection_is_a_violation():
    left = base(interaction("X", "H2", "a"), ["H2"])
    right = base(interaction("Y", "K2", "a"), ["K2"])
    expr = connect(left, "H2", right, "K2")
    violations = validate_gtir(expr)
    assert len(violations) == 1
    assert isinstance(violations[0], IncompatibleInterfaces)
    assert not violations[0].verdict.compatible


def test_validation_collects_violations_from_both_sides():
    left = base(interaction("I", "J", "a"), ["I", "J"])
    right = base(interaction("Y", "K2", "a"), ["K2"])
    expr = connect(left, "J", right, "K2")
    violations = validate_gtir(expr)
    assert {type(v) for v in violations} == {InterfaceCommunication, IncompatibleInterfaces}


def test_composed_fixture_is_valid(relay_expr):
    assert validate_gtir(relay_expr) == []


def test_nested_violations_are_collected_in_order():
    # The outer base lets its interfaces I and J talk; the inner connection
    # joins two receivers of ``a``; the outer connection O <-> P is fine.
    outer = base(parse_global_type("P->Q: c; I->J: b"), ["P", "I", "J"])
    inner = connect(base(parse_global_type("X->O: c; X->H2: a"), ["O", "H2"]), "H2",
                    base(interaction("Y", "K2", "a"), ["K2"]), "K2")
    violations = validate_gtir(connect(outer, "P", inner, "O"))
    assert [type(v) for v in violations] == [InterfaceCommunication, IncompatibleInterfaces]
    assert (str(violations[0].channel), violations[0].message.label) == ("IJ", "b")
    assert (violations[1].h, violations[1].k) == (Role("H2"), Role("K2"))
    assert [type(f) for f in violations[1].verdict.failures] == [LanguageMismatch]


def test_each_role_is_projected_once_and_the_connection_decided_once(relay_expr, monkeypatch):
    from importlib import import_module

    # ``cfsmkit.compose`` is the function; the modules are reached by name.
    compose_module = import_module("cfsmkit.compose")
    gtir_module = import_module("cfsmkit.gtir")
    calls = {"project": 0, "check_compatibility": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gtir_module, "project", counted("project", gtir_module.project))
    monkeypatch.setattr(compose_module, "check_compatibility",
                        counted("check_compatibility", compose_module.check_compatibility))
    for run in (validate_gtir, semantics):
        calls.update(project=0, check_compatibility=0)
        run(relay_expr)
        assert calls == {"project": 9, "check_compatibility": 1}, run.__name__


# -- semantics ----------------------------------------------------------------

def test_semantics_of_base_projects_every_role(relay_type):
    system = semantics(base(relay_type, ["I", "J", "H"]))
    assert set(system.roles) == frozenset(Role(r) for r in "MTCIJH")
    assert system[Role("J")] == project(relay_type, "J")


def test_semantics_of_the_composed_fixture(relay_expr, relay_type, alternator_type):
    system = semantics(relay_expr)
    assert set(system.roles) == frozenset(Role(r) for r in "MTCIJHABK")
    assert system[Role("J")].subject == Role("J")
    # The gateways are exactly the gateway transform of the projections.
    from dataclasses import replace
    union = frozenset()
    for expr_role in system.roles:
        union = union | system[expr_role].messages
    assert system[Role("J")] == replace(
        gateway(project(relay_type, "J"), "K"), messages=union)
    assert system[Role("K")] == replace(
        gateway(project(alternator_type, "K"), "J"), messages=union)
    # And isomorphic to the hand-drawn fixtures after renaming the states.
    assert is_isomorphic(
        gateway(project(relay_type, "J"), "K").renamed({"0": "1", "1": "2"}),
        gateway(submitter_machine(), "K"))


def test_semantics_of_invalid_expression_raises():
    expr = base(interaction("I", "J", "a"), ["I", "J"])
    with pytest.raises(GtirError):
        semantics(expr)


def test_semantics_of_end_only_type_is_the_empty_system():
    system = semantics(base(End(), []))
    assert system.roles == ()
    result = explore(system)
    assert len(result.reachable) == 1
    assert initial_configuration(system).control == ()


# -- laws ---------------------------------------------------------------------

def test_connection_is_semantically_commutative(relay_expr, relay_type, alternator_type):
    flipped = connect(base(alternator_type, ["K"]), "K",
                      base(relay_type, ["I", "J", "H"]), "J")
    assert semantics(relay_expr) == semantics(flipped)


def test_safety_carries_over_from_base_components():
    # Empirical form of the preservation result at the expression level:
    # when each base component's system checks safe, so does the whole.
    import random

    from cfsmkit import check_safety
    from generators import mirror_protocol, project_system, random_open_protocol
    from cfsmkit import roles as type_roles

    rng = random.Random(31337)
    done = 0
    while done < 5:
        g1 = random_open_protocol(rng)
        g2 = mirror_protocol(g1, "H", "E", "K")
        if Role("K") not in type_roles(g2):
            continue
        b1 = base(g1, ["H"])
        b2 = base(g2, ["K"])
        if validate_gtir(connect(b1, "H", b2, "K")):
            continue
        if not check_safety(project_system(g1), max_buffer_bound=4).conclusive:
            continue
        if not check_safety(project_system(g2), max_buffer_bound=4).conclusive:
            continue
        report = check_safety(semantics(connect(b1, "H", b2, "K")), max_buffer_bound=4)
        assert not report.has_violation
        done += 1


# -- parsing and the registry -------------------------------------------------

def test_registry_loads_named_types(data_dir, relay_type, alternator_type):
    registry = load_global_types(data_dir)
    assert registry["relay"] == relay_type
    assert registry["alternator"] == alternator_type


def test_parse_composed_expression(data_dir, relay_expr):
    registry = load_global_types(data_dir)
    text = (data_dir / "composed.gtir").read_text()
    assert parse_gtir(text, registry) == relay_expr


def test_parse_base_expression(data_dir, relay_type):
    registry = load_global_types(data_dir)
    expr = parse_gtir("base relay interfaces {I, J, H}", registry)
    assert expr == base(relay_type, ["I", "J", "H"])


def test_parse_unknown_name(data_dir):
    registry = load_global_types(data_dir)
    with pytest.raises(ParseError):
        parse_gtir("base nonsense interfaces {X}", registry)


def test_explicit_interface_set_is_verified(data_dir):
    registry = load_global_types(data_dir)
    good = ("connect base relay interfaces {I, J, H} via J <-> K "
            "base alternator interfaces {K} interfaces {I, H}")
    parse_gtir(good, registry)
    bad = ("connect base relay interfaces {I, J, H} via J <-> K "
           "base alternator interfaces {K} interfaces {I}")
    with pytest.raises(ParseError) as err:
        parse_gtir(bad, registry)
    assert "does not match" in str(err.value)


def test_render_parse_round_trip(data_dir, relay_expr):
    registry = load_global_types(data_dir)
    text = render_gtir(relay_expr, registry)
    assert parse_gtir(text, registry) == relay_expr
