package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timr/internal/obs"
)

// meterNames are the points the engines' operator meters and the streaming
// barriers report: what an engine counts into fields of its own and folds
// into the scope at the end of each entry, and what a barrier folds once a
// wave. A source's "events" and "ctis" are among them.
var meterNames = map[string]bool{
	"events_in": true, "events_out": true, "ctis": true, "events": true,
	"state": true, "wm_lag": true, "groups_live": true, "groups_reclaimed": true,
	"cti_broadcasts": true, "cti_swallowed": true, "fragments": true,
	"buffer_depth": true, "barrier_releases": true,
}

// meterLines renders sc's meter points, one "scope name value" line each,
// in snapshot order. groups_live is last-write-wins across partitions, so
// it is kept only for a single-partition run.
func meterLines(sc *obs.Scope, live bool) string {
	var b strings.Builder
	for _, p := range sc.Snapshot() {
		if meterNames[p.Name] && (live || p.Name != "groups_live") {
			fmt.Fprintf(&b, "%s %s %d\n", p.Scope, p.Name, p.Value)
		}
	}
	return b.String()
}

// TestMetersPinned: serving on four partitions and on one reports every
// meter point as the build before engine-local meters did, whose readings
// testdata pins (meters-N.txt for N machines): folding a partition's counts
// into the shared scope once per engine entry changes no value.
func TestMetersPinned(t *testing.T) {
	for _, machines := range []int{4, 1} {
		cfg := testConfig()
		cfg.Machines = machines
		cfg.Obs = obs.New("serve")
		srv, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.Run(); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("meters-%d.txt", machines)))
		if err != nil {
			t.Fatal(err)
		}
		if got := meterLines(cfg.Obs, machines == 1); got != string(want) {
			t.Errorf("%d machines: meters differ from the pinned ones\ngot:\n%swant:\n%s", machines, got, want)
		}
	}
}
