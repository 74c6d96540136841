//go:build moqo_mutant_nobodycrc

package store

// bodyIntact, mutated: every body passes, so a bit flipped in a key or a
// value is served as the record's contents instead of skipped. The recovery
// and bit-rot tests of ./internal/store (TestRecoverBitFlippedBody,
// TestGetDetectsBitRotAfterOpen, FuzzStoreRecovery's seeds) must fail under
// go test -tags moqo_mutant_nobodycrc; CI requires it.
func bodyIntact([]byte, uint32) bool { return true }
