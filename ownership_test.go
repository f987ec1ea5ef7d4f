package repro

// Property test for the ownership-transfer protocol: after steady-state
// iterations of the pooled collectives at P up to 32 — exercising the
// batched mailbox delivery, the atomic sense-reversing barrier, every
// pooled payload path (split/reduce chunks, TopkDSA halving pieces,
// gTopk tree and broadcast hops, dense wire buffers) and every fan-out
// payload (Ok-Topk's selection, rebalanced span and threshold gather,
// TopkDSA's reduced pieces, TopkA's and Gaussiank's selections) — no
// backing array may be reachable from two rank pools at once, no pooled
// buffer may alias a live Result, and no origin-owned fan-out slot may
// alias a pooled buffer or another slot. Run under -race in CI, the
// same schedule also lets the race detector check the happens-before
// edges of every buffer migration and every slot reuse.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/experiments"
	"repro/internal/netmodel"
	"repro/internal/sparse"
	"repro/internal/sparsecoll"
	"repro/internal/train"
)

// pointerSet records backing-array pointers and reports duplicates.
// Zero-capacity slices are skipped: they have no backing array of their
// own (Go may hand out a shared zero-size base).
type pointerSet struct {
	seen map[uintptr]string
}

func newPointerSet() *pointerSet { return &pointerSet{seen: map[uintptr]string{}} }

func (ps *pointerSet) add(t *testing.T, where string, s any) {
	ps.addValue(t, where, reflect.ValueOf(s))
}

func (ps *pointerSet) addValue(t *testing.T, where string, v reflect.Value) {
	if v.Cap() == 0 {
		return
	}
	p := v.Pointer()
	if prev, dup := ps.seen[p]; dup {
		t.Fatalf("backing array aliased by two owners: %s and %s", prev, where)
	}
	ps.seen[p] = where
}

var fanOutSlotType = reflect.TypeOf(collectives.FanOutSlot{})

// fanOutSlots calls visit with every slice of every fan-out slot
// reachable from v (an algorithm instance), by walking its fields: the
// slots are private to the algorithms, and this keeps them so.
func fanOutSlots(v reflect.Value, where string, visit func(where string, s reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			fanOutSlots(v.Elem(), where, visit)
		}
	case reflect.Struct:
		if v.Type() == fanOutSlotType {
			visit(where+".Indexes", v.FieldByName("Indexes"))
			visit(where+".Values", v.FieldByName("Values"))
			visit(where+".val32", v.FieldByName("val32"))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fanOutSlots(v.Field(i), where+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fanOutSlots(v.Index(i), fmt.Sprintf("%s[%d]", where, i), visit)
		}
	}
}

func runPooledAlgorithms(t *testing.T, p int, wire cluster.Wire) {
	t.Helper()
	n, k := 20000, 200
	cfg := allreduce.Config{K: k, TauPrime: 4, Tau: 4}
	grads := experiments.SyntheticGradients(123, p, n, k, 0.5)

	c := cluster.NewWire(p, netmodel.PizDaint(), wire)
	kinds := []string{"OkTopk", "TopkDSA", "gTopk", "Dense", "TopkA", "Gaussiank"}
	algos := make(map[string][]allreduce.Algorithm, len(kinds))
	for _, name := range kinds {
		as := make([]allreduce.Algorithm, p)
		for i := range as {
			as[i] = train.NewAlgorithm(name, cfg)
		}
		algos[name] = as
	}
	results := make(map[string][]allreduce.Result, len(kinds))
	for _, name := range kinds {
		results[name] = make([]allreduce.Result, p)
	}

	// Several iterations so pooled buffers migrate between rank pools
	// (the protocol moves a buffer to whichever rank consumed it); the
	// barrier between algorithm rounds exercises the atomic
	// sense-reversing implementation alongside the batched mailboxes.
	for it := 1; it <= 6; it++ {
		if err := c.Run(func(cm *cluster.Comm) error {
			for _, name := range kinds {
				results[name][cm.Rank()] = algos[name][cm.Rank()].Reduce(cm, grads[cm.Rank()], it)
				cm.Barrier()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// ① No backing array is reachable from two pools (within one rank or
	// across ranks): that would mean a buffer was released while another
	// owner could still observe it.
	addPools := func(ps *pointerSet) {
		for r := 0; r < p; r++ {
			floats, floats32, ints := c.PooledBuffers(r)
			for i, s := range floats {
				ps.add(t, fmt.Sprintf("cluster rank %d float buffer %d", r, i), s)
			}
			for i, s := range floats32 {
				ps.add(t, fmt.Sprintf("cluster rank %d float32 buffer %d", r, i), s)
			}
			for i, s := range ints {
				ps.add(t, fmt.Sprintf("cluster rank %d int32 buffer %d", r, i), s)
			}
			addVecPool := func(kind string, pool *sparse.Pool) {
				j := 0
				pool.Each(func(v *sparse.Vec) {
					ps.add(t, fmt.Sprintf("%s rank %d pooled vec %d indexes", kind, r, j), v.Indexes)
					ps.add(t, fmt.Sprintf("%s rank %d pooled vec %d values", kind, r, j), v.Values)
					j++
				})
			}
			addVecPool("TopkDSA", algos["TopkDSA"][r].(*sparsecoll.TopkDSA).Pool())
			addVecPool("gTopk", algos["gTopk"][r].(*sparsecoll.GTopk).Pool())
		}
	}
	ps := newPointerSet()
	addPools(ps)

	// ② No pooled buffer aliases a live Result (Update/Contributed are
	// instance-owned, never pool memory).
	for _, name := range kinds {
		for r, res := range results[name] {
			ps.add(t, fmt.Sprintf("%s rank %d live Update", name, r), res.Update)
			if len(res.Contributed) > 0 {
				ps.add(t, fmt.Sprintf("%s rank %d live Contributed", name, r), res.Contributed)
			}
		}
	}

	// ③ No fan-out slot aliases a pooled buffer or another slot. (A
	// slot may back its own instance's live Contributed — TopkA's does —
	// so the slots get a set of their own beside the pools.)
	slots := newPointerSet()
	addPools(slots)
	for _, name := range kinds {
		found := 0
		for r, a := range algos[name] {
			fanOutSlots(reflect.ValueOf(a), fmt.Sprintf("%s rank %d", name, r), func(where string, s reflect.Value) {
				slots.addValue(t, where, s)
				if s.Cap() > 0 {
					found++
				}
			})
		}
		if fansOut := name != "gTopk" && name != "Dense"; fansOut && found == 0 {
			t.Fatalf("%s: no fan-out slot in use was found to check", name)
		}
	}

	// ④ The live Results are still correct: all ranks agree (a reused
	// buffer that leaked across ranks or iterations would diverge).
	for _, name := range kinds {
		base := results[name][0].Update
		for r := 1; r < p; r++ {
			u := results[name][r].Update
			if len(u) != len(base) {
				t.Fatalf("%s: rank %d update length %d != %d", name, r, len(u), len(base))
			}
			for i := range base {
				if u[i] != base[i] {
					t.Fatalf("%s: rank %d diverges from rank 0 at %d", name, r, i)
				}
			}
		}
	}
}

// TestPayloadOwnershipNoAliasing drives the pooled collective stack at
// several cluster sizes up to P=32, in every wire mode under test, and
// asserts the ownership-transfer invariants above.
func TestPayloadOwnershipNoAliasing(t *testing.T) {
	for _, wire := range testWireModes(t) {
		for _, p := range []int{2, 8, 32} {
			wire, p := wire, p
			t.Run(fmt.Sprintf("wire=%s/P=%d", wire, p), func(t *testing.T) {
				runPooledAlgorithms(t, p, wire)
			})
		}
	}
}
