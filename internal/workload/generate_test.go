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

// BenchmarkGenerate times the whole generator on the bt_batch log.
func BenchmarkGenerate(b *testing.B) {
	cfg := btBatchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}
