//go:build !race

package shard

func poisonSlab([]byte) {}
