package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"timr/internal/temporal"
)

// requestDigest hashes every field of the first n requests, rows included.
func requestDigest(g *LoadGen, n int) string {
	var w temporal.Encoder
	h := sha256.New()
	for i := 0; i < n; i++ {
		r := g.Next()
		w.Reset()
		w.Varint(int64(r.Seq))
		w.Varint(int64(r.Time))
		w.Varint(r.UserId)
		w.Bool(r.Search)
		w.Varint(r.Keyword)
		w.Varint(r.AdId)
		w.Varint(r.Clicked)
		w.Uvarint(uint64(len(r.Rows)))
		for _, row := range r.Rows {
			w.Row(row)
		}
		h.Write(w.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoadGenStreamPinned pins the request stream of a fixed seed: a
// change to how requests are built must not change a byte of them.
func TestLoadGenStreamPinned(t *testing.T) {
	_, g := loadGenPair(t)
	const want = "5a5498b09f799615166616a64c10c48306a66390f48588c6a2bd51e33f58f3ae"
	if got := requestDigest(g, 4000); got != want {
		t.Fatalf("request stream digest %s, want %s", got, want)
	}
}

// TestLoadGenAllocsPerRequest pins the allocation cost of a request:
// an impression's rows come from one slab, so a call makes a bounded
// number of allocations however many keywords the profile holds.
func TestLoadGenAllocsPerRequest(t *testing.T) {
	_, g := loadGenPair(t)
	for i := 0; i < 2000; i++ { // warm the per-user state and scratch
		g.Next()
	}
	if a := testing.AllocsPerRun(2000, func() { g.Next() }); a > 1.5 {
		t.Fatalf("%.2f allocations per request, want <= 1.5 (two per impression)", a)
	}
}

func loadGenPair(t *testing.T) (*Dataset, *LoadGen) {
	t.Helper()
	d := Generate(smallConfig())
	g := NewLoadGen(d, LoadConfig{Seed: 3, Start: d.Horizon / 2})
	return d, g
}

func TestLoadGenDeterministic(t *testing.T) {
	d, a := loadGenPair(t)
	b := NewLoadGen(d, LoadConfig{Seed: 3, Start: d.Horizon / 2})
	for i := 0; i < 2000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra.Seq != rb.Seq || ra.Time != rb.Time || ra.UserId != rb.UserId ||
			ra.Search != rb.Search || ra.Keyword != rb.Keyword ||
			ra.AdId != rb.AdId || ra.Clicked != rb.Clicked || len(ra.Rows) != len(rb.Rows) {
			t.Fatalf("request %d diverges: %+v vs %+v", i, ra, rb)
		}
		for j := range ra.Rows {
			if !ra.Rows[j].Equal(rb.Rows[j]) {
				t.Fatalf("request %d row %d diverges", i, j)
			}
		}
	}
}

func TestLoadGenScheduleAndRows(t *testing.T) {
	_, g := loadGenPair(t)
	last := temporal.Time(temporal.MinTime)
	users := map[int64]int{}
	for i := 0; i < 3000; i++ {
		r := g.Next()
		if r.Time <= last {
			t.Fatalf("request %d: arrival times must be strictly increasing (%d after %d)", i, r.Time, last)
		}
		last = r.Time
		users[r.UserId]++
		if r.Search {
			if len(r.Rows) != 0 {
				t.Fatalf("request %d: search carries %d rows", i, len(r.Rows))
			}
			continue
		}
		// Every impression is scoreable: at least one profiled keyword.
		if len(r.Rows) == 0 {
			t.Fatalf("request %d: impression with empty profile was emitted", i)
		}
		seen := map[int64]bool{}
		for _, row := range r.Rows {
			if got := temporal.Time(row[0].AsInt()); got != r.Time {
				t.Fatalf("request %d: row time %d != arrival %d", i, got, r.Time)
			}
			if row[1].AsInt() != r.UserId || row[2].AsInt() != r.AdId || row[3].AsInt() != r.Clicked {
				t.Fatalf("request %d: row disagrees with request header", i)
			}
			kw := row[4].AsInt()
			if seen[kw] {
				t.Fatalf("request %d: keyword %d appears in two rows", i, kw)
			}
			seen[kw] = true
			if row[5].AsInt() < 1 {
				t.Fatalf("request %d: KwCount %d < 1", i, row[5].AsInt())
			}
		}
	}
	if g.Searches == 0 || g.Impressions == 0 {
		t.Fatalf("mix is degenerate: %d searches, %d impressions", g.Searches, g.Impressions)
	}

	// Zipf skew: the single hottest user owns far more than a uniform
	// share of the arrivals.
	hottest := 0
	for _, n := range users {
		if n > hottest {
			hottest = n
		}
	}
	if uniform := 3000 / smallConfig().Users; hottest < 10*uniform {
		t.Fatalf("user skew too flat: hottest user has %d of 3000 (uniform share %d)", hottest, uniform)
	}
}

func TestLoadGenProfileWindowEvicts(t *testing.T) {
	// With a tiny τ and sparse ticks, old searches must fall out of the
	// profile: every row's keyword was searched within (t-τ, t].
	d := Generate(smallConfig())
	tau := temporal.Time(50)
	g := NewLoadGen(d, LoadConfig{Seed: 5, Start: d.Horizon / 2, Tau: tau, TickEvery: 7})
	searched := map[int64][]temporal.Time{} // user -> search times by kw is overkill; track (user,kw)->times
	type key struct {
		u, kw int64
	}
	hist := map[key][]temporal.Time{}
	for i := 0; i < 4000; i++ {
		r := g.Next()
		if r.Search {
			hist[key{r.UserId, r.Keyword}] = append(hist[key{r.UserId, r.Keyword}], r.Time)
			searched[r.UserId] = append(searched[r.UserId], r.Time)
			continue
		}
		for _, row := range r.Rows {
			kw := row[4].AsInt()
			var inWindow int64
			for _, st := range hist[key{r.UserId, kw}] {
				if st > r.Time-tau && st <= r.Time {
					inWindow++
				}
			}
			if inWindow != row[5].AsInt() {
				t.Fatalf("request %d user %d kw %d: KwCount %d, want %d searches in window",
					i, r.UserId, kw, row[5].AsInt(), inWindow)
			}
		}
	}
}
