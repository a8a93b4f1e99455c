package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenFile pins the bytes of protocol Version 13: one line per frames()
// entry — its kind and the hex of its encoding — then the hex of the
// stream a Writer produces for all of them in order.
const goldenFile = "testdata/golden.txt"

// goldenText renders what goldenFile holds from the codec as it is.
func goldenText(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for _, f := range frames() {
		fmt.Fprintf(&out, "%s %x\n", KindOf(f), Append(nil, f))
		if err := w.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&out, "stream %x\n", stream.Bytes())
	return out.String()
}

// TestGoldenFrames: every frame kind encodes to the bytes it had when the
// file was written, through Append and through a Writer (whose BatchRaw
// and Matches frames take the two-write path). A layout changed the same
// way on the encode and the decode side passes every round-trip test;
// this is the test it fails.
func TestGoldenFrames(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(goldenText(t), "\n")
	lines := strings.Split(string(want), "\n")
	if len(got) != len(lines) {
		t.Fatalf("%d lines encoded, %s holds %d", len(got), goldenFile, len(lines))
	}
	for i := range lines {
		if got[i] != lines[i] {
			g, _ := hex.DecodeString(got[i][strings.IndexByte(got[i], ' ')+1:])
			w, _ := hex.DecodeString(lines[i][strings.IndexByte(lines[i], ' ')+1:])
			at := 0
			for at < len(g) && at < len(w) && g[at] == w[at] {
				at++
			}
			t.Errorf("line %d (%s) differs from %s at byte %d:\n got: %.120s\nwant: %.120s",
				i+1, strings.Fields(lines[i])[0], goldenFile, at, got[i], lines[i])
		}
	}
}
