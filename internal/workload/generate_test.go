package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"timr/internal/temporal"
)

// btBatchConfig is the benchmark ledger's bt_batch log (bench/bt.go's
// btWorkloadConfig at full size, seed 1).
func btBatchConfig() Config {
	return Config{
		Users: 1000, Keywords: 2000, AdClasses: 8, Days: 3, Seed: 1,
		BotFraction: 0.005, BaseCTR: 0.18, NegDamp: 0.5, PosLift: 3,
	}
}

// refreshWeekConfig is the benchmark ledger's refresh_week log
// (bench/refresh.go at full size, seed 1).
func refreshWeekConfig() Config {
	return Config{Users: 500, Keywords: 2000, AdClasses: 8, Days: 7, Seed: 1}
}

// rowsDigest hashes the codec encoding of every row, in order.
func rowsDigest(rows []temporal.Row) string {
	var w temporal.Encoder
	h := sha256.New()
	for _, r := range rows {
		w.Reset()
		w.Row(r)
		h.Write(w.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratePinned pins the generated log byte for byte, its order
// among equal timestamps included: the stable Time order of the users'
// rows in user-id order. Every digest downstream (BT models, refresh
// state, the timr run outputs) is read off this log.
func TestGeneratePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		rows int
		want string
	}{
		{"small", smallConfig(), 39656, "bde0d28bfd457e72d313449304478f2af57170aba756e7a6412574a45ed3c121"},
		{"bt_batch", btBatchConfig(), 133861, "84f18f986dd2a9cb32023948c0ecb885946bef46940123eecca1b62dc5c16b9a"},
		{"refresh_week", refreshWeekConfig(), 124246, "0959f1c1ff15b2ff09ac6a0328a27fd808e48387caaa4eaa6d6e10d42835a2c4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := Generate(tc.cfg)
			if len(d.Rows) != tc.rows {
				t.Fatalf("%d rows, want %d", len(d.Rows), tc.rows)
			}
			if got := rowsDigest(d.Rows); got != tc.want {
				t.Fatalf("log digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestGenerateExhaustedVocabulary: adgen's -users 50 -days 1 -ads 12
// -keywords 60 is a vocabulary too small for twelve classes, so some class
// gets an empty Pos or Neg pool. A user's interest draw that lands on it
// takes a Zipf keyword instead of calling Intn(0), and the log is still
// deterministic.
func TestGenerateExhaustedVocabulary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users, cfg.Days, cfg.AdClasses, cfg.Keywords = 50, 1, 12, 60
	d := Generate(cfg)
	empty := false
	for _, ad := range d.Ads {
		empty = empty || len(ad.Pos) == 0 || len(ad.Neg) == 0
	}
	if !empty {
		t.Fatal("no ad class has an empty keyword pool: the config no longer exhausts the vocabulary")
	}
	if len(d.Rows) == 0 {
		t.Fatal("no rows")
	}
	if a, b := rowsDigest(d.Rows), rowsDigest(Generate(cfg).Rows); a != b {
		t.Fatalf("two calls digest %s and %s", a, b)
	}
}

// BenchmarkGenerate times the whole generator on the bt_batch log.
func BenchmarkGenerate(b *testing.B) {
	cfg := btBatchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}
