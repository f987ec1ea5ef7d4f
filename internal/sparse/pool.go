package sparse

// Pool is a single-owner freelist of sparse vectors — the per-rank
// arena behind the sparse collectives' hop vectors (TopkDSA's
// recursive-halving pieces, gTopk's tree and broadcast hops). Hop
// payloads themselves travel as collectives.WireChunk copies drawn from
// the cluster runtime's rank pools; on receive, the values are read in
// compute precision into a Vec drawn from the receiving rank's Pool,
// merged, and returned to that same Pool. Vectors are therefore
// strictly rank-local, and after a warm-up iteration every pool holds
// enough right-sized vectors for its rank's fan-in, keeping the steady
// state allocation-free.
//
// A Pool is NOT safe for concurrent use: it must only ever be touched
// from its owning rank's goroutine.
//
// Returning a vector is optional — an un-Put vector is simply garbage
// collected — but a vector that another rank can still observe must
// never be Put (fan-out payloads, e.g. allgathered chunks, are owned by
// their origin in a collectives.FanOut instead).
type Pool struct {
	free []*Vec
}

// vecPoolCap bounds the freelist; overflow falls back to the GC. (The
// cluster runtime's flat buffer pools use their own, larger bound.)
const vecPoolCap = 64

// Get returns a vector of the given dimension with length-nnz index and
// value slices. Contents are unspecified; the caller overwrites the full
// length. A pooled vector whose capacity no longer fits is dropped
// rather than reused, so undersized vectors age out.
func (p *Pool) Get(dim, nnz int) *Vec {
	if l := len(p.free); l > 0 {
		v := p.free[l-1]
		p.free[l-1] = nil
		p.free = p.free[:l-1]
		if cap(v.Indexes) >= nnz && cap(v.Values) >= nnz {
			v.Dim = dim
			v.Indexes = v.Indexes[:nnz]
			v.Values = v.Values[:nnz]
			return v
		}
	}
	return &Vec{Dim: dim, Indexes: make([]int32, nnz), Values: make([]float64, nnz)}
}

// Put returns a vector to the pool. The caller must hold the only
// remaining reference; nil is a no-op.
func (p *Pool) Put(v *Vec) {
	if v == nil || len(p.free) >= vecPoolCap {
		return
	}
	v.Indexes = v.Indexes[:0]
	v.Values = v.Values[:0]
	p.free = append(p.free, v)
}

// Len reports how many vectors the pool currently holds (test/debug
// introspection).
func (p *Pool) Len() int { return len(p.free) }

// Each visits every pooled vector (test/debug introspection; the
// payload-ownership property test asserts no backing array is reachable
// from two pools at once).
func (p *Pool) Each(f func(*Vec)) {
	for _, v := range p.free {
		f(v)
	}
}
