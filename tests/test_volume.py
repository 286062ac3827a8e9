import struct

import numpy as np
import pytest

from tbcalib.volume import (BadDtypeError, BadMagicError, BadSpacingError,
                            Cuboid, LabelMask, MvolError, TruncatedFileError,
                            Volume, extract_cuboid, jsonable, normalize_intensity,
                            parse_key_values, read_mvol, write_mvol)


def random_volume(rng, max_side=12):
    nx, ny, nz = rng.integers(1, max_side, size=3)
    return Volume(
        voxels=rng.normal(size=(nz, ny, nx)).astype(np.float32),
        spacing=rng.uniform(0.1, 2.0, size=3),
        origin=rng.uniform(-50, 50, size=3),
    )


def random_mask(rng, max_side=12):
    nx, ny, nz = rng.integers(1, max_side, size=3)
    return LabelMask(
        voxels=(rng.random((nz, ny, nx)) < 0.3).astype(np.uint8),
        spacing=rng.uniform(0.1, 2.0, size=3),
        origin=rng.uniform(-50, 50, size=3),
    )


def test_dims_are_xyz_order():
    v = Volume(voxels=np.zeros((2, 3, 4), dtype=np.float32))
    assert v.dims == (4, 3, 2)


def test_world_of_origin_voxel():
    v = Volume(voxels=np.zeros((2, 2, 2), dtype=np.float32),
               spacing=(0.5, 1.0, 2.0), origin=(-3.0, 4.0, 5.0))
    np.testing.assert_allclose(v.world([0, 0, 0]), [-3.0, 4.0, 5.0])
    np.testing.assert_allclose(v.world([1, 1, 1]), [-2.5, 5.0, 7.0])


def test_voxels_read_only():
    v = random_volume(np.random.default_rng(1))
    with pytest.raises(ValueError):
        v.voxels[0, 0, 0] = 1.0


def test_mask_rejects_other_labels():
    with pytest.raises(ValueError):
        LabelMask(voxels=np.full((2, 2, 2), 3, dtype=np.uint8))
    with pytest.raises(ValueError, match=r"found \[2 3\]"):
        LabelMask(voxels=np.array([0, 1, 3, 2, 1, 0, 3, 1]).reshape(2, 2, 2))


def test_bad_spacing_rejected():
    with pytest.raises(BadSpacingError):
        Volume(voxels=np.zeros((2, 2, 2), dtype=np.float32), spacing=(0.0, 1.0, 1.0))


def test_same_grid():
    rng = np.random.default_rng(2)
    v = random_volume(rng)
    m = LabelMask(voxels=np.zeros_like(v.voxels, dtype=np.uint8),
                  spacing=v.spacing.copy(), origin=v.origin.copy())
    assert v.same_grid(m) and m.same_grid(v)


def test_mvol_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(20):
        obj = random_volume(rng) if i % 2 == 0 else random_mask(rng)
        path = tmp_path / f"v{i}.mvol"
        write_mvol(obj, path)
        back = read_mvol(path)
        assert type(back) is type(obj)
        assert np.array_equal(back.voxels, obj.voxels)
        # geometry survives the f32 header round-trip
        np.testing.assert_allclose(back.spacing, obj.spacing, rtol=1e-6)
        np.testing.assert_allclose(back.origin, obj.origin, rtol=1e-6, atol=1e-5)
        # re-serialization is byte-identical
        path2 = tmp_path / f"v{i}b.mvol"
        write_mvol(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_mvol_header_layout(tmp_path):
    v = Volume(voxels=np.arange(24, dtype=np.float32).reshape(2, 3, 4),
               spacing=(0.5, 0.5, 0.5), origin=(1.0, 2.0, 3.0))
    path = tmp_path / "h.mvol"
    write_mvol(v, path)
    raw = path.read_bytes()
    assert raw[:4] == b"MVOL"
    assert raw[4] == 1  # version
    assert raw[5] == 1  # f32 dtype code
    assert struct.unpack_from("<3I", raw, 8) == (4, 3, 2)
    assert len(raw) == 48 + 24 * 4
    # payload is x-fastest: first two values are voxels[0,0,0], voxels[0,0,1]
    first = np.frombuffer(raw[48:56], dtype="<f4")
    np.testing.assert_array_equal(first, [0.0, 1.0])


def test_mvol_bad_magic(tmp_path):
    p = tmp_path / "bad.mvol"
    p.write_bytes(b"NOPE" + b"\0" * 60)
    with pytest.raises(BadMagicError):
        read_mvol(p)


def test_mvol_truncated_header(tmp_path):
    p = tmp_path / "short.mvol"
    p.write_bytes(b"MVOL\x01\x01")
    with pytest.raises(TruncatedFileError):
        read_mvol(p)


def test_mvol_truncated_payload(tmp_path):
    v = Volume(voxels=np.zeros((4, 4, 4), dtype=np.float32))
    p = tmp_path / "cut.mvol"
    write_mvol(v, p)
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(TruncatedFileError):
        read_mvol(p)


@pytest.mark.parametrize("obj", [Volume(voxels=np.zeros((4, 4, 4), dtype=np.float32)),
                                 LabelMask(voxels=np.zeros((4, 4, 4), dtype=np.uint8))],
                         ids=["volume", "mask"])
def test_mvol_bytes_past_the_payload(tmp_path, obj):
    """Bytes after the header's nx*ny*nz values, as a header whose dims were
    damaged to a smaller product leaves them, are an error, not a wrong grid."""
    p = tmp_path / "long.mvol"
    write_mvol(obj, p)
    p.write_bytes(p.read_bytes() + bytes(16))
    with pytest.raises(MvolError, match="16 bytes past the payload"):
        read_mvol(p)


def test_mvol_bad_dtype(tmp_path):
    v = Volume(voxels=np.zeros((2, 2, 2), dtype=np.float32))
    p = tmp_path / "dt.mvol"
    write_mvol(v, p)
    raw = bytearray(p.read_bytes())
    raw[5] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(BadDtypeError):
        read_mvol(p)


@pytest.mark.parametrize("offset", [6, 7, 44, 45, 46, 47])
@pytest.mark.parametrize("obj", [Volume(voxels=np.zeros((2, 2, 2), dtype=np.float32)),
                                 LabelMask(voxels=np.zeros((2, 2, 2), dtype=np.uint8))],
                         ids=["volume", "mask"])
def test_mvol_reserved_header_byte_must_be_zero(tmp_path, obj, offset):
    p = tmp_path / "reserved.mvol"
    write_mvol(obj, p)
    raw = bytearray(p.read_bytes())
    assert raw[offset] == 0
    raw[offset] = 0xAB
    p.write_bytes(bytes(raw))
    with pytest.raises(MvolError, match=f"reserved header byte {offset} is 0xab, not 0"):
        read_mvol(p)


def test_mvol_bad_version(tmp_path):
    v = Volume(voxels=np.zeros((2, 2, 2), dtype=np.float32))
    p = tmp_path / "ver.mvol"
    write_mvol(v, p)
    raw = bytearray(p.read_bytes())
    raw[4] = 7
    p.write_bytes(bytes(raw))
    with pytest.raises(MvolError):
        read_mvol(p)


def test_mvol_bad_spacing(tmp_path):
    v = Volume(voxels=np.zeros((2, 2, 2), dtype=np.float32))
    p = tmp_path / "sp.mvol"
    write_mvol(v, p)
    raw = bytearray(p.read_bytes())
    struct.pack_into("<f", raw, 20, -1.0)
    p.write_bytes(bytes(raw))
    with pytest.raises(BadSpacingError):
        read_mvol(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("axis", [0, 2], ids=["ox", "oz"])
def test_mvol_non_finite_origin(tmp_path, axis, value):
    v = Volume(voxels=np.zeros((2, 2, 2), dtype=np.float32))
    p = tmp_path / "origin.mvol"
    write_mvol(v, p)
    raw = bytearray(p.read_bytes())
    struct.pack_into("<f", raw, 32 + 4 * axis, value)
    p.write_bytes(bytes(raw))
    with pytest.raises(MvolError, match="origin must be finite"):
        read_mvol(p)


def test_mvol_zero_dimension(tmp_path):
    v = Volume(voxels=np.zeros((2, 2, 2), dtype=np.float32))
    p = tmp_path / "zero.mvol"
    write_mvol(v, p)
    raw = bytearray(p.read_bytes())
    struct.pack_into("<I", raw, 12, 0)  # ny = 0
    p.write_bytes(bytes(raw))
    with pytest.raises(MvolError, match="zero dimension"):
        read_mvol(p)


def test_mvol_huge_dimensions(tmp_path):
    v = Volume(voxels=np.zeros((2, 2, 2), dtype=np.float32))
    p = tmp_path / "huge.mvol"
    write_mvol(v, p)
    raw = bytearray(p.read_bytes())
    struct.pack_into("<3I", raw, 8, *(3 * [2**32 - 1]))
    p.write_bytes(bytes(raw))
    with pytest.raises(TruncatedFileError):
        read_mvol(p)


def test_mvol_mask_label_outside_0_1(tmp_path):
    m = LabelMask(voxels=np.zeros((2, 2, 2), dtype=np.uint8))
    p = tmp_path / "label.mvol"
    write_mvol(m, p)
    raw = bytearray(p.read_bytes())
    raw[-1] = 2
    p.write_bytes(bytes(raw))
    with pytest.raises(MvolError, match=r"found \[2\]"):
        read_mvol(p)


def test_extract_cuboid_contents():
    rng = np.random.default_rng(4)
    v = Volume(voxels=rng.normal(size=(60, 55, 50)).astype(np.float32))
    cub = extract_cuboid(v, (2, 3, 4))
    assert cub.values.shape == (48, 48, 48)
    assert cub.offset == (2, 3, 4)
    np.testing.assert_array_equal(cub.values, v.voxels[4:52, 3:51, 2:50])


def test_extract_cuboid_out_of_bounds():
    v = Volume(voxels=np.zeros((50, 50, 50), dtype=np.float32))
    with pytest.raises(IndexError):
        extract_cuboid(v, (3, 0, 0))


def test_cuboid_shape_checked():
    with pytest.raises(ValueError):
        Cuboid(values=np.zeros((10, 10, 10)), offset=(0, 0, 0))


def test_normalize_intensity():
    v = Volume(voxels=np.array([[[-2000.0, -1000.0, 1000.0, 3000.0, 5000.0]]],
                               dtype=np.float32))
    n = normalize_intensity(v)  # window (-1000, 3000)
    np.testing.assert_allclose(n.voxels[0, 0], [0.0, 0.0, 0.5, 1.0, 1.0])


def test_parse_key_values_skips_blank_and_comment_lines():
    text = "# header\n\n  a = 1,2 \nb=\n  # indented comment\nc=x=y\n"
    assert parse_key_values(text) == {"a": "1,2", "b": "", "c": "x=y"}
    with pytest.raises(ValueError, match="key 'a' given twice"):
        parse_key_values(text + " a = 3\n")


@pytest.mark.parametrize("line", ["loss_log", "= 3"])
def test_parse_key_values_refuses_a_line_without_equals_or_key(line):
    """A bare key would read as an empty value, and `= 3` as the key ''."""
    with pytest.raises(ValueError, match=f"line 3 is not key=value: '{line}'"):
        parse_key_values(f"a=1\n\n {line} \n")


@pytest.mark.parametrize("value", [np.float64("nan"), np.float32("inf"), float("-inf")])
def test_jsonable_maps_every_non_finite_float_to_none(value):
    """numpy's non-finite scalars too, which .item() turns into Python floats."""
    assert jsonable({"a": [value, np.float32(0.5), (np.int64(3),)]}) == {"a": [None, 0.5, [3]]}
