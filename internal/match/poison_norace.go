//go:build !race

package match

// poison is the race build's use-after-release detector (poison_race.go);
// a plain build reuses a block as it is.
func poison(*Block) {}
