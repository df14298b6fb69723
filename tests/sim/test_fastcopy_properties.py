"""The value contract of ``repro.sim.fastcopy``, property-based.

What crosses every RPC and every stable-storage write is
``freeze(value)`` (:func:`repro.sim.fastcopy.fast_deepcopy`).  A plain
tree -- ``dict``/``list``/``tuple`` over atoms -- comes out as a frozen
copy (``FrozenDict`` and tuples) with the same content as
``copy.deepcopy`` would give, sharing nothing editable with the
original.  A declared immutable value -- ``FrozenDict``, a frozen
dataclass deriving from ``Immutable``, a sealed ``ClassAd`` -- crosses
by reference, which is only sound if it really cannot change: the
middle of this file holds every declared type to that.  Any other type
is refused.  The end checks the rule through ``rpc.call``,
``rpc.notify`` and ``StableStorage``: an edit the sender or writer makes
after the crossing stays invisible, an edit the receiver or reader
tries raises, and ``get`` returns the stored object.  Hypothesis
generates the payload trees.
"""

import copy
import enum
import string
from dataclasses import FrozenInstanceError, dataclass, field, fields, \
    replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.classads import ClassAd
from repro.gram.protocol import GramJobRequest
from repro.gsi.pki import Certificate
from repro.gsi.proxy import ProxyCredential
from repro.lrm.base import JobSpec
from repro.sim import Host, Network, Service, Simulator, call, notify
from repro.sim import fastcopy
from repro.sim.fastcopy import FrozenDict, Immutable, fast_deepcopy, freeze
from repro.states import JobState


class _Colour(enum.Enum):
    RED = 1
    PAIR = (1, [2])      # a container-valued member is still a singleton


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


# Members of a plain Enum, an int mixin and the str mixin every persisted
# queue record carries.
_enum_members = st.sampled_from(list(_Colour) + list(_Level) + list(JobState))

# The payload alphabet the simulator actually ships: JSON-ish atoms
# under dict/list/tuple containers.
_atoms = st.one_of(
    _enum_members,
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**40, max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.binary(max_size=12),
)

_trees = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=25,
)


@dataclass
class _Record:
    """Not a plain container and not declared: holds mutables."""

    name: str = "x"
    payload: list = field(default_factory=list)


class _SelfCopier:
    """An object that knows how to deep-copy itself -- which declares
    nothing about whether it can change."""

    def __init__(self, tag):
        self.tag = tag

    def __deepcopy__(self, memo):
        return _SelfCopier(copy.deepcopy(self.tag, memo))


def _assert_no_shared_mutables(a, b):
    """Recursively verify `a` and `b` share no mutable container."""
    if isinstance(a, (list, tuple)):
        if isinstance(a, list):
            assert a is not b
        for x, y in zip(a, b):
            _assert_no_shared_mutables(x, y)
    elif isinstance(a, dict):
        assert a is not b
        for k in a:
            _assert_no_shared_mutables(a[k], b[k])


def _image(obj):
    """What `obj` holds, in plain lists and dicts: freezing turns lists
    into tuples and dicts into ``FrozenDict``, and keeps the image."""
    if isinstance(obj, ClassAd):
        return ("ad", str(obj))
    if isinstance(obj, (list, tuple)):
        return [_image(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _image(item) for key, item in obj.items()}
    if isinstance(obj, Immutable):
        return (type(obj).__name__,
                {f.name: _image(getattr(obj, f.name)) for f in fields(obj)})
    return obj


@given(_trees)
@settings(max_examples=200, deadline=None)
def test_matches_deepcopy_on_payload_trees(tree):
    """Same content as ``copy.deepcopy`` gives, frozen, sharing nothing
    the original could still change."""
    fast = fast_deepcopy(tree)
    assert _image(fast) == _image(copy.deepcopy(tree)) == _image(tree)
    _assert_immutable(fast)
    _assert_no_shared_mutables(tree, fast)


@given(_enum_members, _trees)
@settings(max_examples=100, deadline=None)
def test_enum_members_keep_their_identity(member, tree):
    """Like ``copy.deepcopy``: a member comes back as itself -- as a
    value, as a dict key and next to real containers -- never as a
    re-built instance or its bare mixin value."""
    payload = {"state": member, member: [member, tree], "t": (member, tree)}
    fast = fast_deepcopy(payload)
    assert _image(fast) == _image(payload)
    assert fast["state"] is member
    assert fast[member][0] is member and fast["t"][0] is member
    assert any(key is member for key in fast)
    _assert_no_shared_mutables(payload, fast)


def test_an_enum_key_is_an_atom_before_any_member_crossed():
    """Whether a ``FrozenDict`` takes an ``Enum`` key must not depend on
    whether a member of its class crossed as a value before."""
    class Fresh(enum.Enum):
        A = 1
        B = 2

    assert FrozenDict({Fresh.A: 1}) == {Fresh.A: 1}
    assert fast_deepcopy({Fresh.B: [Fresh.A]}) == {Fresh.B: (Fresh.A,)}
    with pytest.raises(TypeError, match="keys"):
        FrozenDict({Fresh.A: 1, (Fresh.B,): 2})


def test_enum_leaves_do_not_reach_the_deepcopy_fallback(monkeypatch):
    """A queue record is a plain tree over atoms and ``JobState``: it is
    frozen structurally, and ``copy.deepcopy`` is never called -- the
    value contract has no fallback to reach."""
    def fallback(obj, memo=None):
        raise AssertionError(f"fell back to copy.deepcopy for {obj!r}")

    monkeypatch.setattr(copy, "deepcopy", fallback)
    record = {"job_id": "gridjob-1", "state": JobState.ACTIVE,
              "history": [(0.5, "queued", {"level": _Level.HIGH})]}
    frozen = fast_deepcopy(record)
    assert _image(frozen) == _image(record)
    assert frozen["history"][0][2]["level"] is _Level.HIGH
    assert not hasattr(fastcopy, "copy")


@given(_trees)
@settings(max_examples=100, deadline=None)
def test_mutating_the_copy_never_touches_the_original(tree):
    """The frozen copy refuses every edit, and an edit of the original
    does not reach it."""
    original = copy.deepcopy(tree)
    frozen = fast_deepcopy(tree)
    _vandalize(frozen)
    assert tree == original
    _vandalize(tree)
    assert _image(frozen) == _image(original)


def _assert_refused(payload, bad):
    """`bad` is refused on its own and anywhere in a tree."""
    with pytest.raises(TypeError, match="not declared immutable"):
        fast_deepcopy({"outer": [payload, bad]})
    with pytest.raises(TypeError, match="not declared immutable"):
        fast_deepcopy(bad)


@given(st.lists(_atoms, max_size=5), st.sets(st.integers(), max_size=5))
@settings(max_examples=100, deadline=None)
def test_sets_and_dataclasses_are_refused(payload, numbers):
    """There is no fallback copy: a set, a plain dataclass or a
    ``bytearray`` is refused, not copied."""
    for bad in (numbers, _Record("rec", [payload]), bytearray(b"x")):
        _assert_refused(payload, bad)


@given(st.lists(_atoms, max_size=5), st.text(max_size=5))
@settings(max_examples=50, deadline=None)
def test_a_custom_deepcopy_is_refused(payload, tag):
    """An object with its own ``__deepcopy__`` declares nothing about
    whether it can change, so it is refused like any undeclared type."""
    _assert_refused(payload, _SelfCopier(tag))


@given(_trees)
@settings(max_examples=50, deadline=None)
def test_tuple_subclasses_are_not_flattened(tree):
    """A tuple subclass is not a tuple: it is refused, never turned
    into a plain one that has lost its type."""

    class Point(tuple):
        pass

    with pytest.raises(TypeError, match="Point is not declared immutable"):
        fast_deepcopy([Point((1, tree))])


# -- declared-immutable values ---------------------------------------------------
#
# Built from generated field trees: whatever containers a caller hands
# a constructor, what comes out must be a value.

_names = st.text(max_size=6)
_maps = st.dictionaries(_names, _trees, max_size=4)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)

_frozen_dicts = _maps.map(FrozenDict)
_requests = st.builds(
    GramJobRequest, executable_url=_names, env=_maps,
    output_files=st.dictionaries(_names, _names, max_size=3),
    input_datasets=st.lists(_names, max_size=3),
    output_datasets=st.lists(st.tuples(_names, st.integers(0, 10**9)),
                             max_size=3),
    runtime=_floats, program=st.sampled_from([None, len, fast_deepcopy]))
_specs = st.builds(JobSpec, executable=_names, env=_maps)
_certificates = st.builds(
    Certificate, subject=_names, issuer=_names, public_key=_names,
    not_before=_floats, not_after=_floats, is_proxy=st.booleans(),
    serial=st.integers(0, 99), signature=_names)
_proxies = st.builds(ProxyCredential, private_key=_names,
                     chain=st.lists(_certificates, min_size=1, max_size=3))

_ad_scalars = st.one_of(st.booleans(), st.integers(-10**6, 10**6), _floats,
                        st.text(alphabet=string.ascii_letters, max_size=8))
_ad_builders = st.dictionaries(
    st.text(alphabet=string.ascii_letters, min_size=1, max_size=6),
    _ad_scalars, max_size=5).map(ClassAd)
_sealed_ads = _ad_builders.map(ClassAd.seal)

_values = st.one_of(_frozen_dicts, _requests, _specs, _certificates,
                    _proxies, _sealed_ads)

_REFUSALS = (TypeError, FrozenInstanceError)


def _mutators(value):
    """Every public way to change `value` in place, as thunks."""
    if isinstance(value, FrozenDict):
        return [lambda: value.__setitem__("k", 1),
                lambda: value.__delitem__("k"),
                lambda: value.__ior__({"k": 1}),
                value.clear, value.popitem,
                lambda: value.pop("k", None),
                lambda: value.setdefault("k", 1),
                lambda: value.update(k=1)]
    if isinstance(value, ClassAd):
        return [lambda: value.__setitem__("K", 1),
                lambda: value.set_expr("K", ClassAd({"a": 1}).lookup("a")),
                lambda: value.set_expression("K", "1 + 1"),
                lambda: value.update(ClassAd({"K": 1}))]
    names = [f.name for f in fields(value)]
    return ([lambda n=n: setattr(value, n, None) for n in names]
            + [lambda n=n: delattr(value, n) for n in names]
            + [lambda: setattr(value, "brand_new", 1)])


def _assert_immutable(value):
    """`value` and everything reachable from it is an atom or a declared
    immutable value.  (A sealed ad's expressions are immutable once
    built, which ``ClassAd.copy`` has always relied on.)"""
    if value is None or isinstance(
            value, (str, int, float, bytes, enum.Enum)) or callable(value):
        return
    if isinstance(value, tuple):
        for item in value:
            _assert_immutable(item)
    elif isinstance(value, FrozenDict):
        for key, item in value.items():
            _assert_immutable(key)
            _assert_immutable(item)
    elif isinstance(value, Immutable):
        assert value.__dataclass_params__.frozen
        for f in fields(value):
            _assert_immutable(getattr(value, f.name))
    elif isinstance(value, ClassAd):
        with pytest.raises(TypeError):
            value["Sealed"] = False
    else:
        raise AssertionError(f"mutable {type(value).__name__} reachable: "
                             f"{value!r}")


@given(_values)
@settings(max_examples=200, deadline=None)
def test_declared_values_cannot_change_and_cross_by_reference(value):
    before = repr(value) if not isinstance(value, ClassAd) else str(value)
    for mutate in _mutators(value):
        with pytest.raises(_REFUSALS):
            mutate()
    _assert_immutable(value)
    assert fast_deepcopy(value) is value
    assert fast_deepcopy({"in": [value]})["in"][0] is value
    assert freeze(value) is value
    after = repr(value) if not isinstance(value, ClassAd) else str(value)
    assert after == before


@given(_values, _maps)
@settings(max_examples=100, deadline=None)
def test_an_edited_copy_leaves_the_original_alone(value, extra):
    original = str(value) if isinstance(value, ClassAd) \
        else dict(value) if isinstance(value, FrozenDict) \
        else copy.copy(value)
    if isinstance(value, FrozenDict):
        edited = dict(value)
        edited["edited"] = extra
        assert type(value.copy()) is dict and type(value | extra) is dict
        assert value == original and "edited" not in value
    elif isinstance(value, ClassAd):
        edited = value.copy()
        edited["Edited"] = 1
        edited["Edited"] = 2            # an unsealed ad, fully editable
        assert str(value) == original and value.lookup("Edited") is None
        assert fast_deepcopy(edited) is not edited      # sealed on crossing
    else:
        name = "env" if hasattr(value, "env") else fields(value)[0].name
        edited = replace(value, **{name: extra if name == "env" else "new"})
        assert edited is not value and value == original
        _assert_immutable(edited)       # replace() froze what it was given
        if isinstance(value, GramJobRequest):
            assert value.with_env(**extra).env \
                == FrozenDict({**value.env, **extra})
        if name == "env":
            assert value.env == original.env


@given(_ad_builders)
@settings(max_examples=100, deadline=None)
def test_an_ad_is_copied_and_sealed_the_first_time_it_crosses(builder):
    text = str(builder)
    crossed = fast_deepcopy(builder)
    assert crossed is not builder and str(crossed) == text
    assert fast_deepcopy(crossed) is crossed        # ... and only then
    builder["Later"] = 1                            # the sender's is its own
    assert str(crossed) == text
    with pytest.raises(TypeError):
        crossed["Later"] = 1
    assert builder.sealed() is not builder and crossed.sealed() is crossed


def test_constructors_freeze_what_they_are_given():
    cert = Certificate("s", "i", "k", 0.0, 1.0)
    chain = [cert]
    proxy = ProxyCredential(chain=chain, private_key="p")
    chain.append(cert)
    assert proxy.chain == (cert,)
    datasets, env = ["a"], {"PATH": ["/bin"]}
    request = GramJobRequest(input_datasets=datasets, env=env)
    datasets.append("b")
    env["PATH"].append("/evil")
    assert request.input_datasets == ("a",)
    assert request.env == {"PATH": ("/bin",)}
    assert type(request.with_env(X=[1]).env) is FrozenDict
    assert type(replace(request, env={"Y": {}}).env["Y"]) is FrozenDict
    spec = JobSpec(env={"A": "1"})
    with pytest.raises(FrozenInstanceError):
        spec.runtime = 2.0
    assert spec.env == {"A": "1"}


def test_an_undeclared_object_cannot_hide_inside_a_declared_value():
    for bad in (object(), {1, 2}, _Record(), bytearray(b"x")):
        with pytest.raises(TypeError, match="not declared immutable"):
            GramJobRequest(env={"x": bad})
        with pytest.raises(TypeError, match="not declared immutable"):
            FrozenDict(x=[bad])
    with pytest.raises(TypeError, match="keys"):
        FrozenDict({(1, 2): "tuple key"})

    @dataclass
    class Liar(Immutable):
        x: int = 0

    with pytest.raises(TypeError, match="not a frozen dataclass"):
        Liar()


# -- end to end: nothing crosses back ----------------------------------------------

_payloads = st.one_of(_trees, _values, _ad_builders,
                      st.lists(st.one_of(_values, _ad_builders), max_size=3))


def _vandalize(obj):
    """Do to `obj`, and to everything reachable from it, whatever it
    lets us do: a frozen value must refuse every edit."""
    if isinstance(obj, FrozenDict) or isinstance(obj, Immutable):
        for mutate in _mutators(obj):
            with pytest.raises(_REFUSALS):
                mutate()
        for item in (obj.values() if isinstance(obj, dict)
                     else [getattr(obj, f.name) for f in fields(obj)]):
            _vandalize(item)
    elif isinstance(obj, ClassAd):
        if obj.sealed() is obj:
            with pytest.raises(TypeError):
                obj["Vandalized"] = True
        else:
            obj["Vandalized"] = True
    elif isinstance(obj, list):
        for item in obj:
            _vandalize(item)
        obj.append("vandalized")
    elif isinstance(obj, dict):
        for item in obj.values():
            _vandalize(item)
        obj["vandalized"] = True
    elif isinstance(obj, tuple):
        for item in obj:
            _vandalize(item)


class _Keeper(Service):
    service_name = "keeper"

    def handle_keep(self, ctx, data):
        self.kept = data
        return data         # aliases server state


def _grid():
    sim = Simulator(seed=3)
    Network(sim, latency=0.1, jitter=0.0)
    client, server = Host(sim, "client"), Host(sim, "server")
    return sim, client, _Keeper(server)


@given(_payloads)
@settings(max_examples=150, deadline=None)
def test_rpc_call_isolates_both_directions(payload):
    sent = _image(payload)
    sim, client, keeper = _grid()
    box = {}

    def caller():
        box["got"] = yield from call(client, "server", "keeper", "keep",
                                     data=payload)

    client.spawn(caller())
    sim.schedule(0.05, lambda: _vandalize(payload))   # sent, not yet landed
    sim.run()
    assert _image(keeper.kept) == _image(box["got"]) == sent
    for crossed in (keeper.kept, box["got"]):
        _assert_immutable(crossed)
        _vandalize(crossed)             # neither side can edit what it got
    assert _image(keeper.kept) == _image(box["got"]) == sent


@given(_payloads)
@settings(max_examples=100, deadline=None)
def test_rpc_notify_fixes_the_payload_at_send(payload):
    sent = _image(payload)
    sim, client, keeper = _grid()
    notify(client, "server", "keeper", "keep", data=payload)
    _vandalize(payload)
    sim.run()
    assert _image(keeper.kept) == sent
    _assert_immutable(keeper.kept)


@given(_payloads)
@settings(max_examples=150, deadline=None)
def test_stable_storage_isolates_writer_disk_and_readers(payload):
    written = _image(payload)
    sim = Simulator(seed=3)
    host = Host(sim, "disk")
    host.stable.put("ns", "key", payload)
    _vandalize(payload)                       # the writer carries on
    host.crash()
    host.restart()
    first = host.stable.get("ns", "key")
    assert _image(first) == written
    _assert_immutable(first)
    _vandalize(first)                         # a reader cannot edit it
    assert host.stable.get("ns", "key") is first
    (key, listed), = host.stable.items("ns")
    assert key == "key" and listed is first
    assert host.stable.namespace("ns").get("key") is first
