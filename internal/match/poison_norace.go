//go:build !race

package match

// poison is the race build's use-after-release detector (poison_race.go);
// a plain build reuses a block as it is.
func poison(*Block) {}

// PoisonBytes is the race build's use-after-release detector for bytes
// (poison_race.go); a plain build reuses them as they are.
func PoisonBytes([]byte) {}
