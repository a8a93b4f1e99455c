//go:build race

package shard

// poisonSlab overwrites an outbox slab on its way back to its worker with
// bytes no match body contains — an endless varint — so that under the
// race detector an Enc slice that outlived its OnTagged call fails the
// reader's check or a byte-identity suite instead of quietly reading the
// next cut's matches (match.Block's poison, for bytes).
func poisonSlab(b []byte) {
	for i := range b {
		b[i] = 0xff
	}
}
