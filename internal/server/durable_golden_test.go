package server

// The golden pin of the bytes a durable engine persists. The recovery
// tests check that replays agree with each other; this one fixes what the
// scripted durability scenario (durableCfg + driveScenario) writes — the
// WAL and both checkpoints — so a change to the fault, requeue or fail
// path that shifts a record fails here even when every replay still
// agrees with itself.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestGoldenDurableBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values are pinned on amd64; %s fuses multiply-add and rounds differently", runtime.GOARCH)
	}
	pinned := []struct {
		file string
		size int
		sha  string
	}{
		{"wal.1", 22627, "a945f06bf39ba03d82ac19244be7820d41c209afa0c829ee987953b1cc4b1201"},
		{"ckpt", 2738, "8180645d49990018bfe3d6a0510c2f990323857aa2b5818c44afac0378c9d3c3"},
		{"ckpt.mid", 2746, "11d8b16666bc3629240f8e24d323fe050564cbce9f0c71a19a24bd1edaf437a8"},
	}
	m := buildModel(t, 30)
	dir := t.TempDir()
	clk := NewManualClock()
	eng, err := New(durableCfg(t, m, dir, clk))
	if err != nil {
		t.Fatal(err)
	}
	driveScenario(t, eng, clk, m)
	eng.Close()
	for _, p := range pinned {
		data, err := os.ReadFile(filepath.Join(dir, p.file))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); len(data) != p.size || got != p.sha {
			t.Errorf("%s: %d bytes, sha256 %s; pinned %d bytes, %s", p.file, len(data), got, p.size, p.sha)
		}
	}
}
