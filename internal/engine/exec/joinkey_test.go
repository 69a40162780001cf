package exec

import (
	"math"
	"testing"

	"crowddb/internal/storage"
)

// appendJoinKey is the probe hot path: once the scratch buffer has grown
// to the key size, encoding a key must not allocate at all.
func TestAppendJoinKeyNoAllocs(t *testing.T) {
	vals := []storage.Value{storage.Int(1234567), storage.Text("some-name"), storage.Bool(true)}
	scratch := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		key, ok := appendJoinKey(scratch[:0], vals)
		if !ok || len(key) == 0 {
			t.Fatal("key encoding failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("appendJoinKey allocates %.1f times per key, want 0", allocs)
	}
}

func TestAppendJoinKeySemantics(t *testing.T) {
	enc := func(vals ...storage.Value) (string, bool) {
		key, ok := appendJoinKey(nil, vals)
		return string(key), ok
	}

	// Numeric equality crosses int/float, so 1 and 1.0 must collide.
	ik, _ := enc(storage.Int(1))
	fk, _ := enc(storage.Float(1.0))
	if ik != fk {
		t.Fatalf("1 and 1.0 encode differently: %q vs %q", ik, fk)
	}

	// Text containing the separator byte must not forge a multi-key
	// collision with a differently split pair.
	a, _ := enc(storage.Text("x\x1f"), storage.Text("y"))
	b, _ := enc(storage.Text("x"), storage.Text("\x1fy"))
	if a == b {
		t.Fatalf("separator-containing texts collide: %q", a)
	}

	// Any NULL kills the whole key (the row can never match).
	if _, ok := enc(storage.Int(1), storage.Null()); ok {
		t.Fatal("NULL component produced a usable key")
	}

	// Kinds stay distinct: 1 and '1' must not collide.
	tk, _ := enc(storage.Text("1"))
	if ik == tk {
		t.Fatalf("int 1 and text '1' collide: %q", ik)
	}

	// -0 = 0, so -0.0, 0.0 and integer 0 must collide.
	nz, _ := enc(storage.Float(math.Copysign(0, -1)))
	pz, _ := enc(storage.Float(0))
	iz, _ := enc(storage.Int(0))
	if nz != pz || nz != iz {
		t.Fatalf("zeros encode differently: -0 %q, 0.0 %q, 0 %q", nz, pz, iz)
	}

	// NaN = NaN is never true, so a NaN key, like NULL, never matches.
	if _, ok := enc(storage.Float(math.NaN())); ok {
		t.Fatal("NaN produced a usable key")
	}
}

// Group keys are kind-tagged and exact: 1, 1.0 and '1' are three groups,
// while every NaN is one group.
func TestAppendGroupKeySemantics(t *testing.T) {
	enc := func(v storage.Value) string { return string(appendGroupKey(nil, v)) }
	keys := map[string]string{}
	for name, v := range map[string]storage.Value{
		"int 1": storage.Int(1), "float 1.0": storage.Float(1), "text '1'": storage.Text("1"),
		"true": storage.Bool(true), "NULL": storage.Null(),
	} {
		k := enc(v)
		if other, dup := keys[k]; dup {
			t.Fatalf("%s and %s share the key %q", name, other, k)
		}
		keys[k] = name
	}
	if a, b := enc(storage.Float(math.NaN())), enc(storage.Float(-math.NaN())); a != b {
		t.Fatalf("NaNs encode differently: %q vs %q", a, b)
	}
	scratch := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		scratch = appendGroupKey(appendGroupKey(scratch[:0], storage.Int(7)), storage.Text("seven"))
	})
	if allocs != 0 {
		t.Fatalf("appendGroupKey allocates %.1f times per key, want 0", allocs)
	}
}
