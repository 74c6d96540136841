package workload

import "testing"

// TestMixedBatchDeterministic pins that the same spec generates the
// identical workload twice — queries, algorithms, weights and shuffle
// order. benchmark/'s batch_fresh builds its members from MixedBatch and
// checks their digest against a committed expectation, so a drift here
// would read there as "inputs changed".
func TestMixedBatchDeterministic(t *testing.T) {
	a, err := MixedBatch(BatchSpec{Tables: 7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MixedBatch(BatchSpec{Tables: 7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Weights != b[i].Weights || a[i].Base != b[i].Base ||
			a[i].Query.Name != b[i].Query.Name || a[i].Algorithm != b[i].Algorithm {
			t.Fatalf("member %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
