package main

import (
	"strconv"

	"acep/internal/match"
)

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// keyHash is the FNV-1a hash of the emitting pattern's id (four
// little-endian bytes; 0 on single-pattern systems) followed by the
// bytes of m.Key(). It walks the match the way Key does instead of
// calling it, because Key builds a string per match and the delivery
// callback runs inside the timed region.
func keyHash(id uint32, m *match.Match) uint64 {
	h := fnvOffset
	for i := 0; i < 4; i++ {
		h = (h ^ uint64(byte(id>>(8*i)))) * fnvPrime
	}
	var buf [20]byte
	for _, ev := range m.Events {
		if ev == nil {
			h = (h ^ '_') * fnvPrime
		} else {
			for _, c := range strconv.AppendUint(buf[:0], ev.Seq, 10) {
				h = (h ^ uint64(c)) * fnvPrime
			}
		}
		h = (h ^ ',') * fnvPrime
	}
	return h
}

// digest summarises a delivered match stream two ways at once. set is
// order-insensitive (the wrapping sum of the match hashes): equal sets
// mean equal match multisets, the contract between any two engines on
// one stream. seq folds the same hashes in delivery order: equal seqs
// mean the identical stream in the identical order, the byte-identity
// contract the shard, cluster and HA layers hold against the
// single-process sharded engine.
type digest struct {
	n, set, seq uint64
}

func (d *digest) add(h uint64) {
	d.n++
	d.set += h
	d.seq = (d.seq ^ h) * fnvPrime
}

// sameSet reports equal match multisets, whatever the order.
func (d digest) sameSet(o digest) bool { return d.n == o.n && d.set == o.set }
