package sparse

// Merge kernels for the sparse reduction hot paths. Every sparse
// collective produces per-source index lists that are already sorted
// (selection scans emit ascending indexes; region slices and rebalanced
// spans preserve order), so re-sorting their concatenation with a
// comparison sort wastes the structure. MergeRuns merges the sorted
// runs directly, in place over a concatenated index buffer with
// reusable scratch (zero steady-state allocations). Summing two vectors
// is AddTo in coo.go.

// mergeInto merges the two sorted runs a and b into dst, which must
// have length len(a)+len(b). Equal values keep a-before-b order.
func mergeInto(dst, a, b []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// concatSorted reports whether the concatenation of the runs is already
// globally sorted (each run's first element is >= the previous run's
// last) — the common case when runs cover disjoint ascending spans,
// e.g. per-rank region chunks.
func concatSorted(idx []int32, ends []int) bool {
	for _, e := range ends {
		if e > 0 && e < len(idx) && idx[e] < idx[e-1] {
			return false
		}
	}
	return true
}

// MergeRuns sorts idx in place, treating it as consecutive ascending
// runs whose (cumulative, ascending) end offsets are given in ends —
// the last entry must equal len(idx). It performs log(runs) pairwise
// merge passes between idx and scratch, allocating only if scratch is
// too small. It returns the sorted slice and the spare buffer (one of
// the two inputs; the caller should retain both for reuse). ends is
// clobbered. Stable: elements of equal value stay in run order.
func MergeRuns(idx []int32, ends []int, scratch []int32) (sorted, spare []int32) {
	if len(ends) > 0 && ends[len(ends)-1] != len(idx) {
		panic("sparse: MergeRuns ends do not cover idx")
	}
	if len(ends) <= 1 || concatSorted(idx, ends) {
		return idx, scratch
	}
	if cap(scratch) < len(idx) {
		scratch = make([]int32, len(idx))
	}
	src, dst := idx, scratch[:len(idx)]
	for len(ends) > 1 {
		ne := 0
		start := 0
		for r := 0; r < len(ends); r += 2 {
			if r+1 == len(ends) {
				// Odd run out: carry it over to keep the buffers aligned.
				copy(dst[start:ends[r]], src[start:ends[r]])
				ends[ne] = ends[r]
				ne++
				break
			}
			mid, hi := ends[r], ends[r+1]
			mergeInto(dst[start:hi], src[start:mid], src[mid:hi])
			ends[ne] = hi
			ne++
			start = hi
		}
		ends = ends[:ne]
		src, dst = dst, src
	}
	return src, dst
}
