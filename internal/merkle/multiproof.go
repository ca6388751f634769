package merkle

import (
	"fmt"
	"slices"

	"batchzk/internal/sha2"
)

// MultiProof is a batched authentication proof for several leaves of one
// tree: instead of one full path per leaf, it carries only the sibling
// digests that the verifier cannot reconstruct, deduplicated across the
// paths. The leaf digests themselves are not part of the proof — the
// verifier recomputes them from the opened data (for the polynomial
// commitment's spot-checks, by hashing the opened columns).
type MultiProof struct {
	// Indices of the proven leaves, strictly increasing.
	Indices []int
	// Siblings holds the needed sibling digests in the deterministic
	// order the verifier consumes them (layer by layer, left to right).
	Siblings []sha2.Digest
	// NumLeaves is the tree width the proof was generated for.
	NumLeaves int
}

// ProveMulti returns a deduplicated batched proof for the given leaf
// indices (duplicates are coalesced).
func (t *Tree) ProveMulti(indices []int) (*MultiProof, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("merkle: no indices to prove")
	}
	for _, i := range indices {
		if i < 0 || i >= t.NumLeaves() {
			return nil, fmt.Errorf("merkle: leaf %d out of range [0,%d)", i, t.NumLeaves())
		}
	}
	sorted := slices.Clone(indices)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	mp := &MultiProof{Indices: sorted, NumLeaves: t.NumLeaves()}

	// Walk up layer by layer: at each layer, the known set is the parents
	// of the previous known set; a sibling is emitted only if it is not
	// itself known.
	known := append([]int{}, sorted...)
	for l := 0; l < t.Depth(); l++ {
		next := known[:0]
		for k := 0; k < len(known); k++ {
			idx := known[k]
			sib := idx ^ 1
			if k+1 < len(known) && known[k+1] == sib {
				k++ // sibling is known: both children present, no emission
			} else {
				mp.Siblings = append(mp.Siblings, t.layers[l][sib])
			}
			next = append(next, idx/2)
		}
		known = next
	}
	return mp, nil
}

// VerifyMulti checks a batched proof against a root, given the digests
// of the proven leaves aligned to mp.Indices.
func VerifyMulti(root sha2.Digest, mp *MultiProof, leaves []sha2.Digest) bool {
	if mp == nil || len(mp.Indices) == 0 || len(mp.Indices) != len(leaves) {
		return false
	}
	if mp.NumLeaves <= 0 || mp.NumLeaves&(mp.NumLeaves-1) != 0 {
		return false
	}
	depth := 0
	for 1<<depth < mp.NumLeaves {
		depth++
	}
	// Indices must be strictly increasing and in range.
	for k, i := range mp.Indices {
		if i < 0 || i >= mp.NumLeaves {
			return false
		}
		if k > 0 && i <= mp.Indices[k-1] {
			return false
		}
	}

	// The frontier is updated in place: each layer knows at most as many
	// nodes as the one below it, and node k is written only after nodes
	// up to k have been read.
	idx := append([]int{}, mp.Indices...)
	frontier := append([]sha2.Digest{}, leaves...)
	sibPos := 0
	for l := 0; l < depth; l++ {
		n := 0
		for k := 0; k < len(idx); k++ {
			i, cur := idx[k], frontier[k]
			var sib sha2.Digest
			if k+1 < len(idx) && idx[k+1] == i^1 {
				sib = frontier[k+1]
				k++
			} else {
				if sibPos >= len(mp.Siblings) {
					return false
				}
				sib = mp.Siblings[sibPos]
				sibPos++
			}
			if i&1 == 0 {
				frontier[n] = sha2.Compress2(&cur, &sib)
			} else {
				frontier[n] = sha2.Compress2(&sib, &cur)
			}
			idx[n] = i / 2
			n++
		}
		idx, frontier = idx[:n], frontier[:n]
	}
	if sibPos != len(mp.Siblings) || len(frontier) != 1 {
		return false
	}
	return frontier[0] == root
}

// MaxMultiSiblings bounds the sibling count of a MultiProof for k leaves
// of a numLeaves-wide tree (a power of two). At layer l every emitted
// sibling has a distinct parent, and there are at most min(k,
// numLeaves/2^(l+1)) parents, so the bound sums that over the layers.
func MaxMultiSiblings(k, numLeaves int) int {
	total := 0
	for w := numLeaves / 2; w >= 1; w /= 2 {
		total += min(k, w)
	}
	return total
}
