package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestRefuse: every flag the chosen mode would not read is refused,
// naming it, and a command whose every flag is read passes.
func TestRefuse(t *testing.T) {
	for _, c := range []struct {
		args string
		want string // in the error; "" means accepted
	}{
		{"-connect a -shards 2", "-shards configures engines"},
		{"-connect a -nodes 2", "-nodes spawns in-process workers"},
		{"-connect a -ha -nodes 2", "-nodes spawns in-process workers"},
		{"-ha", "-ha needs -connect"},
		{"-nodes 2 -standby a", "-standby needs -recover or -ha"},
		{"-nodes 2 -recover -standby a", "-standby needs -connect"},
		{"-connect a -standby b", "-standby needs -recover or -ha"},
		{"-connect a -recover", "-recover with -connect needs -standby"},
		{"-recover", "-recover needs -nodes or -connect"},
		{"-connect a -ha -standby b -recover", "-recover needs -nodes or -connect (-ha always recovers)"},
		{"-nodes 2 -rebalance", "-rebalance needs -recover"},
		{"-nodes 2 -recover -join a", "-join needs -connect and -recover"},
		{"-connect a -join b", "-join needs -connect and -recover"},
		{"-nodes 2 -drain 0", "-drain needs -recover"},
		{"-nodes 2 -ha-kill-after 5", "-ha-kill-after needs -ha"},
		{"-connect a -standby-addr b", "-standby-addr needs -ha"},
		{"-connect a -lease-addr b", "-lease-addr needs -ha"},
		{"-nodes 2 -chaos seed=7", "-chaos needs -ha"},
		{"-connect a -ha -rebalance", "-rebalance does not compose with -ha"},
		{"-connect a -ha -join b", "-join does not compose with -ha"},
		{"-connect a -ha -drain 0", "-drain does not compose with -ha"},
		{"-connect a -ha -patternset s", "-patternset does not compose with -ha"},
		{"-connect a -ha -tenant-budget 0=1", "-tenant-budget does not compose with -ha"},
		{"-nodes 2 -shards 2 -recover -rebalance -drain 1", ""},
		{"-connect a -recover -standby b -rebalance -join c -drain 0", ""},
		{"-connect a -ha -standby b -ha-kill-after 5 -standby-addr c -lease-addr d -chaos seed=7", ""},
		{"-shards 4 -model zstream -tenant-budget 0=1", ""},
		{"-batch 7", "-batch needs a session to cut"},
		{"-batch 7 -key nosuch", "-batch needs a session to cut"},
		{"-key nosuch", "-key without a session is read only by a shedding policy"},
		{"-shards 1 -key k", "-key without a session is read only by a shedding policy"},
		{"-shed random -shed-rate 5 -key k", ""},
		{"-shards 2 -batch 7 -key k", ""},
		{"-nodes 2 -batch 7 -key k", ""},
		{"-patternset s -batch 7 -key k", ""},
		{"-connect a -batch 7 -key k", ""},
	} {
		fs := flag.NewFlagSet("acep-run", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o := declare(fs)
		if err := fs.Parse(append([]string{"-in", "k.csv"}, strings.Fields(c.args)...)); err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		err := o.refuse(fs)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one containing %q", c.args, err, c.want)
		}
	}
}
