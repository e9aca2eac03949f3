package value

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// checkProps asserts that p is a well-formed list (keys strictly ascending,
// no null values) holding exactly the model's entries.
func checkProps(t *testing.T, step int, p Props, model map[string]Value, pool []string) {
	t.Helper()
	if p.Len() != len(model) {
		t.Fatalf("step %d: len %d, model has %d", step, p.Len(), len(model))
	}
	keys := p.Keys()
	if !slices.IsSorted(keys) || len(slices.Compact(slices.Clone(keys))) != len(keys) {
		t.Fatalf("step %d: keys not strictly sorted: %v", step, keys)
	}
	for k, v := range p.All() {
		if IsNull(v) {
			t.Fatalf("step %d: list stores null under %q", step, k)
		}
	}
	for _, k := range append(pool, "absent") {
		want, inModel := model[k]
		got, ok := p.Get(k)
		if ok != inModel || (ok && Equals(got, want) != TrueT) {
			t.Fatalf("step %d: Get(%q) = %v,%v; model %v,%v", step, k, got, ok, want, inModel)
		}
		if !inModel && !IsNull(p.Property(k)) {
			t.Fatalf("step %d: Property(%q) of absent key = %v", step, k, p.Property(k))
		}
	}
	m := p.Map()
	if len(m) != len(model) {
		t.Fatalf("step %d: Map has %d entries, model %d", step, len(m), len(model))
	}
}

// TestPropsMatchMapModel drives a list and a Go map through the same random
// sequence of set, remove, set-to-null and replace operations and checks
// they agree after every step, for key pools of 0, 1, 3 and 64 keys. It
// also checks that no operation changes a list it was applied to.
func TestPropsMatchMapModel(t *testing.T) {
	for _, nkeys := range []int{0, 1, 3, 64} {
		t.Run(fmt.Sprintf("keys=%d", nkeys), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(nkeys) + 1))
			pool := make([]string, nkeys)
			for i := range pool {
				pool[i] = fmt.Sprintf("k%02d", rng.Intn(1000))
			}
			key := func() string {
				if nkeys == 0 {
					return "k"
				}
				return pool[rng.Intn(nkeys)]
			}
			var p Props
			model := map[string]Value{}
			for step := 0; step < 2000; step++ {
				before := slices.Clone(p.e)
				prev := p
				switch op := rng.Intn(10); {
				case op < 5: // set
					k, v := key(), NewInt(int64(rng.Intn(100)))
					p = p.With(k, v)
					model[k] = v
				case op < 7: // remove
					k := key()
					p = p.Without(k)
					delete(model, k)
				case op < 9: // set to null
					k := key()
					p = p.With(k, Null())
					delete(model, k)
				default: // replace, with nulls among the new entries
					in := map[string]Value{}
					for i := rng.Intn(nkeys + 1); i > 0; i-- {
						if rng.Intn(4) == 0 {
							in[key()] = Null()
						} else {
							in[key()] = NewString(fmt.Sprint(rng.Intn(100)))
						}
					}
					p = NewProps(in, nil)
					model = map[string]Value{}
					for k, v := range in {
						if !IsNull(v) {
							model[k] = v
						}
					}
				}
				if !slices.Equal(prev.e, before) {
					t.Fatalf("step %d: an operation changed the list it was applied to", step)
				}
				checkProps(t, step, p, model, pool)
			}
		})
	}
}

// TestNewPropsInterns checks that NewProps stores the interned copy of each
// key rather than the caller's string.
func TestNewPropsInterns(t *testing.T) {
	canon := "name"
	p := NewProps(map[string]Value{string([]byte("name")): NewInt(1), "gone": Null()}, func(string) string { return canon })
	if p.Len() != 1 || p.e[0].Key != "name" {
		t.Fatalf("NewProps = %v", p)
	}
	if unsafe.StringData(p.e[0].Key) != unsafe.StringData(canon) {
		t.Fatal("key was not replaced by the interned copy")
	}
}
