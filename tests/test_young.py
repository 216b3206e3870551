import itertools
import time

import pytest
from hypothesis import given, strategies as st

from signcrystal import young
from signcrystal.errors import ValidationError
from signcrystal.young import (
    BoxRef,
    Multipartition,
    check_partition,
    corners,
    multipartitions_of,
    multipartitions_up_to,
    partitions_of,
)


def corner_boxes(m):
    """(addable, removable) boxes of m, component by component, from `corners`."""
    found = [], []
    for comp, part in enumerate(m.components):
        for boxes, cells in zip(found, corners(part)):
            boxes.extend(BoxRef(comp, row, col) for row, col in cells)
    return found


partition_lists = st.lists(st.integers(min_value=1, max_value=9), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestPartitionValidation:
    def test_trims_trailing_zeros(self):
        assert check_partition([3, 1, 0, 0]) == (3, 1)

    def test_rejects_increase(self):
        with pytest.raises(ValidationError):
            check_partition([1, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_partition([3, -1])

    @pytest.mark.parametrize(
        "read",
        [check_partition, lambda rows: Multipartition.from_lists([rows]).components[0]],
        ids=["check_partition", "from_lists"],
    )
    def test_trailing_zeros_trim_in_linear_time(self, read):
        start = time.perf_counter()
        assert read([1] + [0] * 60_000) == (1,)
        assert time.perf_counter() - start < 1.0

    def test_trim_comes_before_the_order_check(self):
        # only trailing zeros go: the message shows the inner zero
        start = time.perf_counter()
        message = r"^partition rows must be weakly decreasing, got \(2, 0, 1\)$"
        with pytest.raises(ValidationError, match=message):
            check_partition([2, 0, 1] + [0] * 60_000)
        assert time.perf_counter() - start < 1.0


class TestCorners:
    def test_removable(self):
        assert corners((3, 1))[1] == [(1, 3), (2, 1)]
        assert corners(())[1] == []
        assert corners((2, 2))[1] == [(2, 2)]

    def test_addable(self):
        assert corners((3, 1))[0] == [(1, 4), (2, 2), (3, 1)]
        assert corners(())[0] == [(1, 1)]
        assert corners((2, 2))[0] == [(1, 3), (3, 1)]

    def test_contents_distinct_and_interleaved(self):
        for n in range(11):
            for p in partitions_of(n):
                addable, removable = corners(p)
                rem_contents = [c - r for r, c in removable]
                add_contents = [c - r for r, c in addable]
                assert len(set(rem_contents)) == len(rem_contents)
                assert len(set(add_contents)) == len(add_contents)
                assert not set(rem_contents) & set(add_contents)
                # by content the kinds alternate, starting and ending addable
                labelled = sorted(
                    [(c, "a") for c in add_contents] + [(c, "r") for c in rem_contents]
                )
                kinds = [kind for _, kind in labelled]
                assert kinds[0] == kinds[-1] == "a"
                assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_subset_removal_valid(self):
        for n in range(9):
            for p in partitions_of(n):
                removable = corners(p)[1]
                for take in range(len(removable) + 1):
                    for subset in itertools.combinations(removable, take):
                        rows = list(p)
                        for r, _ in subset:
                            rows[r - 1] -= 1
                        check_partition(rows)


class TestMultipartition:
    def test_add(self):
        m = Multipartition(((2,), ()))
        assert m.add_box(BoxRef(1, 1, 1)) == Multipartition(((2,), (1,)))

    def test_remove(self):
        m = Multipartition(((2,), (1,)))
        assert m.remove_box(BoxRef(1, 1, 1)) == Multipartition(((2,), ()))

    def test_add_rejects_non_addable(self):
        with pytest.raises(ValidationError):
            Multipartition(((2,),)).add_box(BoxRef(0, 1, 1))

    def test_remove_rejects_non_removable(self):
        with pytest.raises(ValidationError):
            Multipartition(((2,),)).remove_box(BoxRef(0, 1, 1))

    def test_component_out_of_range(self):
        m = Multipartition(((2,),))
        for box in (BoxRef(1, 1, 1), BoxRef(-1, 1, 3)):
            with pytest.raises(ValidationError):
                m.add_box(box)
        for box in (BoxRef(1, 1, 1), BoxRef(-1, 1, 2)):
            with pytest.raises(ValidationError):
                m.remove_box(box)

    def test_box_steps_accept_exactly_the_corners(self):
        for n in range(9):
            for p in partitions_of(n):
                m = Multipartition((p,))
                addable, removable = corners(p)
                first = p[0] if p else 0
                for row in range(1, len(p) + 3):
                    for col in range(1, first + 3):
                        box = BoxRef(0, row, col)
                        for step, cells in ((m.add_box, addable), (m.remove_box, removable)):
                            if (row, col) in cells:
                                step(box)
                            else:
                                with pytest.raises(ValidationError):
                                    step(box)

    def test_steps_and_enumeration_build_canonical_values(self):
        def same(m):
            ref = Multipartition.from_lists(m.to_lists())
            assert m == ref and hash(m) == hash(ref)
            assert m.components == ref.components

        for ell in (1, 2):
            for m in multipartitions_up_to(ell, 6):
                same(m)
                addable, removable = corner_boxes(m)
                for box in addable:
                    same(m.add_box(box))
                for box in removable:
                    same(m.remove_box(box))

    def test_roundtrip_exhaustive(self):
        for ell in (1, 2):
            for m in multipartitions_up_to(ell, 6):
                addable, removable = corner_boxes(m)
                for box in addable:
                    assert m.add_box(box).remove_box(box) == m
                for box in removable:
                    assert m.remove_box(box).add_box(box) == m

    def test_size_and_boxes(self):
        m = Multipartition(((3, 1), (2,)))
        assert m.size == 6

    def test_from_lists_both_shapes(self):
        bare = Multipartition.from_lists([[3, 1], []])
        wrapped = Multipartition.from_lists({"components": [[3, 1], []]})
        assert bare == wrapped
        assert bare.to_lists() == [[3, 1], []]

    def test_from_lists_rejects_garbage(self):
        with pytest.raises(ValidationError):
            Multipartition.from_lists({"components": [[1]], "extra": 1})
        with pytest.raises(ValidationError):
            Multipartition.from_lists("nope")
        with pytest.raises(ValidationError):
            Multipartition.from_lists([[1, 2]])

    def test_from_lists_validates_each_component_once(self, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(tuple(rows))
            return check_partition(rows)

        monkeypatch.setattr(young, "check_partition", counting)
        m = Multipartition.from_lists([[3, 1, 0], [2]])
        assert m.components == ((3, 1), (2,))
        assert calls == [(3, 1, 0), (2,)]
        with pytest.raises(ValidationError, match="each component"):
            Multipartition.from_lists([[1], 2])

    def test_rows_are_the_only_state(self):
        # slotted: no per-instance __dict__ a cache could hide in
        made = [
            Multipartition(((3, 1), (2,))),
            Multipartition.from_lists([[3, 1], []]),
            Multipartition(((2,), ())).add_box(BoxRef(1, 1, 1)),
            *multipartitions_of(2, 3),
        ]
        for m in made:
            assert all((m.size, *corner_boxes(m)))
            assert not hasattr(m, "__dict__")

    @given(st.lists(partition_lists, min_size=1, max_size=3))
    def test_lists_roundtrip(self, comps):
        m = Multipartition(tuple(comps))
        assert Multipartition.from_lists(m.to_lists()) == m


class TestEnumeration:
    def test_partition_counts(self):
        assert len(list(partitions_of(8))) == 22
        assert list(partitions_of(0)) == [()]

    def test_multipartition_count(self):
        assert len(list(multipartitions_of(2, 3))) == 10

    def test_up_to_is_sorted_by_size(self):
        sizes = [m.size for m in multipartitions_up_to(2, 4)]
        assert sizes == sorted(sizes)

    def test_distinct(self):
        nodes = list(multipartitions_up_to(3, 4))
        assert len(nodes) == len(set(nodes))

    def test_compositions_order(self):
        # first part ascending, then the rest in the same order
        def reference(n, k):
            if k == 1:
                return [(n,)]
            return [(h,) + t for h in range(n + 1) for t in reference(n - h, k - 1)]

        for n in range(7):
            for k in range(1, 6):
                assert list(young._compositions(n, k)) == reference(n, k)

    def test_many_components(self):
        # more components than the default recursion limit of 1000
        labels = list(multipartitions_up_to(1500, 1))
        assert len(labels) == len(set(labels)) == 1501
        assert [m.size for m in labels] == [0] + [1] * 1500
