package fleet

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"snowcat/internal/campaign"
	"snowcat/internal/kernel"
	"snowcat/internal/strategy"
)

// FuzzLoadCheckpoint writes arbitrary bytes where a checkpoint should be
// and pins LoadCheckpoint's contract for damaged files: it returns a
// checkpoint or an error wrapping ErrBadCheckpoint, never a panic. An
// accepted checkpoint carries the format magic and saves and loads again.
// The seeds are a real mid-campaign checkpoint cut at several offsets.
func FuzzLoadCheckpoint(f *testing.F) {
	k := kernel.Generate(kernel.SmallConfig(7))
	m, tc := tinyModel(k, 8)
	fl, err := New(k, m, tc, Config{Shards: 2, Sync: true})
	if err != nil {
		f.Fatal(err)
	}
	conf := campaignConf()
	conf.Strat = strategy.NewS1()
	conf.Pred = fl.Client("PIC")
	ckPath := filepath.Join(f.TempDir(), "campaign.ck")
	co := &Coordinator{Fleet: fl, Runner: campaign.NewRunner(k), Campaign: conf,
		RoundSize: 2, CheckpointPath: ckPath, StopAfter: 1}
	_, err = co.Run()
	fl.Close()
	if !errors.Is(err, ErrStopped) {
		f.Fatalf("checkpointing run: err=%v, want ErrStopped", err)
	}
	data, err := os.ReadFile(ckPath)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(data), len(data) - 1, len(data) * 3 / 4, len(data) / 2, 40, 1, 0} {
		f.Add(data[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ck")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("rejection not tagged ErrBadCheckpoint: %v", err)
			}
			return
		}
		if ck.Magic != checkpointMagic {
			t.Fatalf("accepted checkpoint with magic %q", ck.Magic)
		}
		again := filepath.Join(dir, "again")
		if err := SaveCheckpoint(again, ck); err != nil {
			t.Fatalf("re-save of accepted checkpoint: %v", err)
		}
		if _, err := LoadCheckpoint(again); err != nil {
			t.Fatalf("re-load of accepted checkpoint: %v", err)
		}
	})
}
