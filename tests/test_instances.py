import json
import re

import numpy as np
import pytest

from bimodcat import cli
from bimodcat.algebra import MultiMatrixAlgebra
from bimodcat.bimodule import Bimodule, Morphism, canonical_bimodule
from bimodcat.linalg import crandn
from bimodcat.instances import (InstanceFormatError, InstanceSpec, Limits,
                                _encode, generate, load, load_lenient, random_algebra,
                                random_bimodule, save, to_document)
from stacks import given_by_stacks


def test_limits_validation():
    Limits()
    with pytest.raises(ValueError):
        Limits(max_blocks=0)
    with pytest.raises(ValueError):
        Limits(max_dim=0)
    with pytest.raises(ValueError):
        Limits(min_mult=2, max_mult=1)
    with pytest.raises(ValueError):
        Limits(min_mult=-1)
    # one sector of two blocks of size max_block has max_block**2 dimensions
    for max_block, max_dim in ((2, 1), (2, 3), (3, 8)):
        with pytest.raises(ValueError, match="max_dim"):
            Limits(max_block=max_block, max_dim=max_dim)


def test_generate_deterministic():
    s1 = generate(42)
    s2 = generate(42)
    assert save(s1) == save(s2)
    s3 = generate(43)
    assert save(s1) != save(s3)


def test_generated_chain_is_composable_and_valid():
    for seed in range(10):
        spec = generate(seed)
        assert len(spec.algebras) == len(spec.bimodules) + 1
        for i, x in enumerate(spec.bimodules):
            assert x.left_algebra.blocks == spec.algebras[i].blocks
            assert x.right_algebra.blocks == spec.algebras[i + 1].blocks
            assert x.validate() < 1e-9
        for m in spec.morphisms:
            assert m.is_morphism()


def test_limits_respected():
    lim = Limits(max_blocks=2, max_block=2, max_mult=3, max_dim=12, min_mult=1)
    rng = np.random.default_rng(0)
    for _ in range(30):
        a = random_algebra(rng, lim)
        assert 1 <= len(a.blocks) <= lim.max_blocks
        assert all(1 <= n <= lim.max_block for n in a.blocks)
        b = random_algebra(rng, lim)
        x = random_bimodule(a, b, rng, lim)
        assert x.dim <= lim.max_dim
    # min_mult forces every sector on (when the cap allows it)
    lim2 = Limits(min_mult=1, max_mult=1, max_dim=100)
    rng2 = np.random.default_rng(1)
    a = random_algebra(rng2, lim2)
    b = random_algebra(rng2, lim2)
    x = random_bimodule(a, b, rng2, lim2)
    assert x.dim > 0
    # the smallest cap allowed, max_block**2, holds on every draw
    for max_block in (1, 2, 3):
        lim3 = Limits(max_block=max_block, max_dim=max_block ** 2)
        for seed in range(40):
            assert all(x.dim <= lim3.max_dim
                       for x in generate(seed, limits=lim3).bimodules)


def test_canonical_models_without_basis_unitaries_round_trip(tmp_path, capsys):
    # the README's library example: the field is left out, as the loader
    # allows, and the stacks and the verify report come back the same
    a, b = MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((1, 2))
    spec = InstanceSpec(seed=0, limits=Limits(), algebras=(a, b, a),
                        bimodules=(canonical_bimodule(a, b, np.array([[1, 1]])),
                                   canonical_bimodule(b, a, np.array([[1], [1]]))))
    blob = save(spec)
    assert all("basis_unitary" not in x for x in json.loads(blob)["bimodules"])
    loaded = load(blob)
    assert save(loaded) == blob
    for x, y in zip(spec.bimodules, loaded.bimodules):
        assert np.array_equal(x.left_units, y.left_units)
        assert np.array_equal(x.right_units, y.right_units)
    reports = []
    for name, blob in (("saved", blob), ("resaved", save(loaded))):
        path = tmp_path / f"{name}.json"
        path.write_bytes(blob)
        assert cli.main(["verify", "--instance", str(path), "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["summary"]["total"] > 0


def _zero_dimensional_chain(by_stacks):
    """A chain whose middle bimodule has dimension 0, with a 0x0 endomorphism.

    Its basis unitary is the 0x0 matrix; ``by_stacks`` gives it by its action
    stacks instead, one empty matrix per unit.  The first bimodule, of
    dimension 6, has a basis unitary and an endomorphism too.
    """
    a, b = MultiMatrixAlgebra((2,)), MultiMatrixAlgebra((1, 2))
    first = canonical_bimodule(a, b, np.array([[1, 1]]), basis_unitary=np.eye(6))
    empty = canonical_bimodule(b, a, np.zeros((2, 1), dtype=int),
                               basis_unitary=np.eye(0))
    if by_stacks:
        empty = Bimodule(b, a, empty.left_units, empty.right_units)
    return InstanceSpec(
        seed=0, limits=Limits(), algebras=(a, b, a, b),
        bimodules=(first, empty, canonical_bimodule(a, b, np.array([[1, 1]]))),
        morphisms=(Morphism(empty, empty, np.zeros((0, 0))),
                   Morphism(first, first, np.eye(6))))


@pytest.mark.parametrize("by_stacks", [False, True], ids=["unitary", "stacks"])
def test_a_zero_dimensional_bimodule_round_trips(by_stacks, tmp_path, capsys):
    # an empty array is written without its [re, im] axis: the 0x0 basis
    # unitary and matrix as [], the stacks as one [] per unit
    blob = save(_zero_dimensional_chain(by_stacks))
    entry = json.loads(blob)["bimodules"][1]
    if by_stacks:
        assert entry["left_action"] == [[]] * 5
        assert entry["right_action"] == [[]] * 4
    else:
        assert entry["basis_unitary"] == []
    assert json.loads(blob)["morphisms"][0]["matrix"] == []
    loaded = load(blob)
    assert save(loaded) == blob
    assert loaded.bimodules[1].dim == 0
    assert loaded.morphisms[0].matrix.shape == (0, 0)
    path = tmp_path / "zero.json"
    path.write_bytes(blob)
    assert cli.main(["verify", "--instance", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["total"] > 0


@pytest.mark.parametrize("by_stacks, section, index, key, value", [
    (False, "bimodules", 0, "basis_unitary", []),
    (False, "bimodules", 1, "basis_unitary", [[]]),
    (False, "bimodules", 1, "basis_unitary", "x"),
    (True, "bimodules", 1, "right_action", [[]] * 5),
    (False, "morphisms", 0, "matrix", [[]]),
    (False, "morphisms", 1, "matrix", []),
], ids=["unitary-6", "unitary-0-axes", "unitary-0-junk", "stack-0-units",
        "matrix-0-axes", "matrix-6"])
def test_empty_data_must_fit_the_fields_shape(by_stacks, section, index, key, value):
    doc = to_document(_zero_dimensional_chain(by_stacks))
    doc[section][index][key] = value
    with pytest.raises(InstanceFormatError,
                       match=re.escape(f"$.{section}[{index}].{key}: expected")):
        load(json.dumps(doc))


def test_save_load_round_trip_byte_identical():
    for seed in (0, 5, 11):
        spec = generate(seed)
        blob = save(spec)
        spec2 = load(blob)
        assert save(spec2) == blob
        assert spec2.seed == spec.seed
        assert len(spec2.bimodules) == len(spec.bimodules)


def test_load_missing_field_names_path():
    doc = to_document(generate(1))
    del doc["bimodules"][0]["left"]
    with pytest.raises(InstanceFormatError, match=r"\$\.bimodules\[0\]\.left"):
        load(json.dumps(doc))


@pytest.mark.parametrize("corrupt, message", [
    (lambda doc: doc.update(seed="x"), r"\$\.seed: expected an integer"),
    (lambda doc: doc["bimodules"][0].update(left="a"),
     r"\$\.bimodules\[0\]\.left: expected an integer"),
    (lambda doc: doc["algebras"].__setitem__(0, 7),
     r"\$\.algebras\[0\]: expected an object"),
    (lambda doc: doc.update(algebras=3), r"\$\.algebras: expected a list"),
], ids=["seed", "bimodule-left", "algebra-entry", "algebras"])
def test_load_wrong_field_type_names_path(corrupt, message):
    doc = to_document(generate(1))
    corrupt(doc)
    with pytest.raises(InstanceFormatError, match="^" + message):
        load(json.dumps(doc))


def test_load_version_mismatch():
    doc = to_document(generate(1))
    doc["version"] = 99
    with pytest.raises(InstanceFormatError, match="version"):
        load(json.dumps(doc))


def test_load_rejects_bad_json_and_bad_refs():
    with pytest.raises(InstanceFormatError, match="JSON"):
        load(b"{not json")
    doc = to_document(generate(1))
    doc["bimodules"][0]["left"] = 50
    with pytest.raises(InstanceFormatError, match="out of range"):
        load(json.dumps(doc))


def test_load_lenient_truncates_broken_chain():
    doc = to_document(generate(2))
    # corrupt the second bimodule's basis unitary: no longer unitary
    doc["bimodules"][1]["basis_unitary"][0][0] = [100.0, 0.0]
    spec, violations = load_lenient(json.dumps(doc))
    assert violations
    assert "$.bimodules[1]" in violations[0][0]
    assert len(spec.bimodules) == 1   # chain cut at the broken link
    with pytest.raises(InstanceFormatError):
        load(json.dumps(doc))


def test_stacks_whose_frame_cannot_be_found_are_a_violation(tmp_path, capsys):
    # "big" cut to its first bimodule (dim 53) and its endomorphism, given
    # by its stacks, the right stack's first two diagonal units moved by +-H
    # with ||H||_2 = 4e-9: the unit sums and the adjoints hold, and validate
    # passes, but no corner's range basis spans it to 1e-8.  The loader
    # names the bimodule and cuts the chain there, and verify reports one
    # instance-valid entry with exit 1
    limits = Limits(min_mult=1, max_mult=3, max_blocks=3, max_block=3, max_dim=200)
    big = generate(1, limits)
    x = big.bimodules[0]
    doc = given_by_stacks(InstanceSpec(seed=1, limits=limits, algebras=big.algebras[:2],
                                       bimodules=(x,), morphisms=big.morphisms[:1]))
    assert x.dim == 53
    right, unit = x.right_units, x.right_algebra.diagonal.unit
    h = crandn(np.random.default_rng(0), x.dim, x.dim)
    h = h + h.conj().T
    h *= 4e-9 / np.linalg.norm(h, 2)
    right[unit[0]] += h
    right[unit[1]] -= h
    doc["bimodules"][0]["right_action"] = _encode(right)
    blob = json.dumps(doc)
    with pytest.raises(InstanceFormatError) as err:
        load(blob)
    msg = str(err.value)
    # validate ran first and passed: the frame's corner test fails
    assert re.match(r"\$\.bimodules\[0\]: corner .* is not a projection", msg)
    path = tmp_path / "perturbed.json"
    path.write_text(blob)
    assert cli.main(["verify", "--instance", str(path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["error"]) for c in report["checks"]] == [
        ("instance-valid", msg)]
    assert report["summary"]["errors"] == 0


def test_load_lenient_skips_bad_morphism():
    # morphism 2 of gen --seed 3 is an endomorphism of a bimodule of
    # dimension 4; a random real matrix of its shape is no intertwiner
    doc = to_document(generate(3))
    m2 = doc["morphisms"][2]
    rows, cols = np.shape(m2["matrix"])[:2]
    assert rows > 1
    m2["matrix"] = _encode(np.random.default_rng(0).standard_normal((rows, cols)))
    spec, violations = load_lenient(json.dumps(doc))
    kept = generate(3).morphisms[:2]
    assert len(spec.morphisms) == len(kept)
    assert all(np.array_equal(m.matrix, k.matrix) for m, k in zip(spec.morphisms, kept))
    ((msg, defect),) = violations
    assert msg == f"$.morphisms[2]: matrix is not an intertwiner (defect {defect:.3e})"
    assert defect > 1e-8


def test_chain_consistency_enforced():
    spec = generate(4)
    with pytest.raises(ValueError):
        InstanceSpec(seed=0, limits=Limits(),
                     algebras=spec.algebras[:2], bimodules=spec.bimodules)


def test_signed_zero_round_trip():
    spec = generate(6)
    blob = save(spec)
    assert save(load(blob)) == blob
    doc = json.loads(blob)
    # decode keeps -0.0 imaginary parts distinct in re-serialization
    assert json.dumps(to_document(load(blob)), sort_keys=True) == \
        json.dumps(doc, sort_keys=True)
