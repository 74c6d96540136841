//go:build !moqo_mutant_nobodycrc

package store

import "hash/crc32"

// bodyIntact reports whether a record's key and value match the checksum
// written after them. It is a mutation seam: mutant_nobodycrc.go replaces it
// under the build tag moqo_mutant_nobodycrc.
func bodyIntact(body []byte, crc uint32) bool { return crc32.Checksum(body, castagnoli) == crc }
